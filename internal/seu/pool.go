package seu

import (
	"sync"

	"repro/internal/board"
	"repro/internal/place"
)

// Board replica pooling. Parallel campaigns clone one board replica per
// worker; on repeated campaigns over the same design (the crosscheck
// lattice, chunked re-runs, benchmark variants) those clones are pure
// allocation churn — a replica that finished a campaign cleanly is, after
// the per-injection ResetCampaignState, indistinguishable from a fresh
// clone. The pool parks such replicas keyed by placement and reuses them
// when a later campaign of the same design asks for workers; only the
// maxCachedPlacements most recently used placements keep a pool
// (placecache.go).
//
// Soundness: reuse must never leak state between campaigns, so
//   - entries carry the base board's CampaignFingerprint (configuration +
//     hidden state, user state excluded); a pooled replica is handed out
//     only when its tag matches the requesting base, and mismatches are
//     dropped on the floor — a base with flipped half-latches or an edited
//     bitstream never receives a stale substrate;
//   - replicas are released only after a campaign range completes without
//     error (a cancelled worker may hold a board mid-corruption);
//   - history-coupled designs (SRL16, writable BRAM, stuck overlays)
//     never pool: their configuration memory drifts during simulation, so
//     a "clean completion" does not imply a golden substrate.

type pooledReplica struct {
	bd  *board.SLAAC1V
	tag uint64
}

// poolEligible reports whether base's replicas may transit the pool at all.
func poolEligible(base *board.SLAAC1V) bool {
	return !base.DUT.HistoryCoupled() && !base.Golden.HistoryCoupled()
}

// acquireReplica returns a worker board for base: a pooled replica whose
// fingerprint matches tag, or a fresh clone. The seed only decorrelates a
// fresh clone's idle rng — results are independent of it.
func acquireReplica(base *board.SLAAC1V, tag uint64, seed int64) *board.SLAAC1V {
	if !poolEligible(base) {
		// Ineligible bases never pool; leave any parked (eligible-era)
		// replicas of this placement for campaigns that can use them.
		poolMisses.Add(1)
		return base.Clone(seed)
	}
	if st := placementFor(base.Placed, false); st != nil {
		for {
			e, _ := st.pool.Get().(*pooledReplica)
			if e == nil {
				break
			}
			if e.tag == tag {
				poolHits.Add(1)
				return e.bd
			}
			// Stale substrate from an incompatible campaign state; drop it.
		}
	}
	poolMisses.Add(1)
	return base.Clone(seed)
}

// releaseReplica parks wb for reuse after a cleanly completed campaign
// range. clean=false (errors, cancellation) discards the board.
func releaseReplica(wb *board.SLAAC1V, tag uint64, clean bool) {
	if !clean || !poolEligible(wb) {
		return
	}
	placementFor(wb.Placed, true).pool.Put(&pooledReplica{bd: wb, tag: tag})
}

// replicaPoolFor exposes pool internals to tests.
func replicaPoolFor(p *place.Placed) *sync.Pool {
	if st := placementFor(p, false); st != nil {
		return &st.pool
	}
	return nil
}
