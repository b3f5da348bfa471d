package seu

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync/atomic"

	"repro/internal/board"
	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/place"
)

// Amortized batch planning. A vector-kernel campaign used to classify every
// sampled bit (Classify + PlanVectorDelta) inside the per-worker injection
// loop — once per chunk visit, once more per pooled-replica reuse. The
// pre-plan hoists that into one pass over the sampled address range, run
// once per campaign. The plan is sparse: only bits that need board work get
// a planEntry (disposition, ready-to-apply overlay delta, stimulus seed);
// padding, extra-frame, triage-inert and planner-benign bits — the vast
// majority on a large device — are only counted, per fixed block of
// addresses. Workers walk their window of the entry slice and fold the
// window's injection tallies from whole blocks plus a bit-by-bit rescan of
// the two partial edge blocks. The plan (and the compiled struct-of-arrays
// design it carries) is cached per placement keyed by the board's
// CampaignFingerprint and the selection-relevant options, so repeated
// campaigns over the same substrate — crosscheck lattice points, benchmark
// variants, chunked re-runs — skip both the compile and the classification
// pass entirely.

// planAct is a board-work bit's precomputed disposition.
type planAct uint8

const (
	// planVector: lane-eligible; delta holds the overlay.
	planVector planAct = iota
	// planCarry: scalar observe/repair, then lane-carried clean/persist
	// windows (DemotedWindowable).
	planCarry
	// planScalar: fully scalar (e.g. BRAM port bits).
	planScalar
)

// planEntry is one selected bit's precomputed board work.
type planEntry struct {
	addr  device.BitAddr
	seed  int64 // stimulus seed
	delta fpga.VectorDelta
	kind  device.BitKind
	act   planAct
}

// planBlockBits is the address span of one tally block. A window's edge
// rescan touches at most two blocks' worth of addresses, so the size only
// trades tally-table length against that rescan.
const planBlockBits = 4096

// numKinds sizes per-kind tally arrays (device.BitKind is dense from
// KindPad to KindExtra).
const numKinds = int(device.KindExtra) + 1

// planBlock tallies the selected bits of one block of addresses.
type planBlock struct {
	kinds  [numKinds]int32 // selected bits by kind
	triage int32           // selected bits the triage retired
}

// prePlan is a campaign's classified injection set plus the compiled design
// every lane machine shares. Immutable once built; shared read-only across
// workers, chunks, and pooled replicas.
type prePlan struct {
	comp *fpga.CompiledDesign
	// entries holds the bits needing board work (planVector, planCarry,
	// planScalar), strictly ascending by address.
	entries []planEntry
	// blocks[j] tallies [j*planBlockBits, min((j+1)*planBlockBits, limit)).
	blocks []planBlock
	limit  int64
}

// window returns the entries with lo <= addr < hi (entries ascend by addr).
func (p *prePlan) window(lo, hi int64) []planEntry {
	i := sort.Search(len(p.entries), func(k int) bool { return int64(p.entries[k].addr) >= lo })
	j := sort.Search(len(p.entries), func(k int) bool { return int64(p.entries[k].addr) >= hi })
	return p.entries[i:j]
}

// tally returns the selected bits of [lo, hi) by kind and how many of them
// the triage retired — the injection accounting of every selected bit in
// the window, whether or not it has an entry. Whole blocks come from the
// tally table; the partial blocks at either edge are rescanned bit by bit
// with the same selection, classification and triage tests the build used.
func (p *prePlan) tally(lo, hi int64, opts Options, g device.Geometry, tri *triage) (kinds [numKinds]int64, triaged int64) {
	lo, hi = max(lo, 0), min(hi, p.limit)
	scan := func(lo, hi int64) {
		for a := device.BitAddr(lo); int64(a) < hi; a++ {
			if !selected(opts, a) {
				continue
			}
			k := g.Classify(a).Kind
			kinds[k]++
			if k != device.KindPad && k != device.KindExtra && tri.inert(a) {
				triaged++
			}
		}
	}
	if lo >= hi {
		return // also keeps lo < limit, so the block math cannot overflow
	}
	const b = planBlockBits
	j0, j1 := (lo+b-1)/b, hi/b // whole blocks j0..j1-1
	if j0 >= j1 {
		scan(lo, hi)
		return
	}
	scan(lo, j0*b)
	for _, blk := range p.blocks[j0:j1] {
		for k, n := range blk.kinds {
			kinds[k] += int64(n)
		}
		triaged += int64(blk.triage)
	}
	scan(j1*b, hi)
	return
}

// Campaign-plane counters (exported through campaignd's /metrics).
var (
	plannerCalls    atomic.Int64 // PlanVectorDelta invocations (≤1 per sampled bit per campaign)
	planCacheHits   atomic.Int64
	planCacheMisses atomic.Int64
	poolHits        atomic.Int64 // replica-pool reuses
	poolMisses      atomic.Int64 // fresh board clones
)

// PlanCacheStats returns cumulative pre-plan cache hits and misses.
func PlanCacheStats() (hits, misses int64) {
	return planCacheHits.Load(), planCacheMisses.Load()
}

// PoolStats returns cumulative replica-pool hits (reuses) and misses
// (fresh clones).
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// planKey is everything besides the substrate fingerprint that shapes a
// plan: the selection set (seed/sample/limit derived from MaxBits) and the
// triage classifier baked into the entries.
type planKey struct {
	fp     uint64
	seed   int64
	sample float64
	limit  int64
	triage bool
}

// maxCachedPlanEntries bounds the size of a cached plan: a dense design's
// sweep could still hold millions of board-work entries, which is not
// worth parking between campaigns. The compiled design is cached
// regardless.
const maxCachedPlanEntries = 1 << 20

type planCacheEntry struct {
	fp   uint64
	comp *fpga.CompiledDesign
	key  planKey
	plan *prePlan // nil when the entry slice was too large to cache
}

// pprof label sets for the vector path's stages (satellite of the SoA
// work): -cpuprofile output attributes time to plan/simulate/emit.
var (
	labelsPlan     = pprof.Labels("kernel", "vector", "phase", "plan")
	labelsSimulate = pprof.Labels("kernel", "vector", "phase", "simulate")
	labelsEmit     = pprof.Labels("kernel", "vector", "phase", "emit")
)

// campaignPlan gates pre-planning on vector eligibility: the oracle needs
// no plan, and designs with history-coupled state (or no design at all) run
// every bit on the scalar path regardless of Kernel.
func campaignPlan(bd *board.SLAAC1V, opts Options, limit int64, tri *triage) *prePlan {
	if opts.Kernel != KernelVector || bd.DUT.HistoryCoupled() || bd.DUT.Unprogrammed() {
		return nil
	}
	return prePlanFor(bd, opts, limit, tri)
}

// prePlanFor returns the campaign's pre-plan, from the per-placement cache
// when the substrate fingerprint and selection options match, else by
// compiling and classifying now. The caller guarantees vector eligibility
// (KernelVector, not history-coupled, programmed).
func prePlanFor(bd *board.SLAAC1V, opts Options, limit int64, tri *triage) *prePlan {
	key := planKey{
		fp:     bd.CampaignFingerprint(),
		seed:   opts.Seed,
		sample: opts.Sample,
		limit:  limit,
		triage: tri != nil,
	}
	st := placementFor(bd.Placed, true)
	var comp *fpga.CompiledDesign
	if ce := st.plan.Load(); ce != nil && ce.fp == key.fp {
		if ce.plan != nil && ce.key == key {
			planCacheHits.Add(1)
			return ce.plan
		}
		// Same substrate, different selection (or uncached entries):
		// reuse the compiled design, rebuild the classification.
		comp = ce.comp
	}
	planCacheMisses.Add(1)
	var plan *prePlan
	pprof.Do(context.Background(), labelsPlan, func(context.Context) {
		if comp == nil {
			comp = board.CompileVector(bd)
		}
		plan = buildPrePlan(bd, opts, limit, tri, comp)
	})
	ce := &planCacheEntry{fp: key.fp, comp: comp, key: key}
	if len(plan.entries) <= maxCachedPlanEntries {
		ce.plan = plan
	}
	st.plan.Store(ce)
	return plan
}

// buildPrePlan runs the one-pass classification over the sampled range.
// The planner runs against the base board's golden decode — identical to
// every replica's — so its verdicts hold for all workers.
func buildPrePlan(bd *board.SLAAC1V, opts Options, limit int64, tri *triage, comp *fpga.CompiledDesign) *prePlan {
	g := bd.Geometry()
	p := &prePlan{
		comp:   comp,
		blocks: make([]planBlock, (limit+planBlockBits-1)/planBlockBits),
		limit:  limit,
	}
	var calls int64
	for a := device.BitAddr(0); int64(a) < limit; a++ {
		if !selected(opts, a) {
			continue
		}
		info := g.Classify(a)
		blk := &p.blocks[int64(a)/planBlockBits]
		blk.kinds[info.Kind]++
		if info.Kind == device.KindPad || info.Kind == device.KindExtra {
			continue // provably benign: no decoded behaviour depends on it
		}
		if tri.inert(a) {
			blk.triage++
			continue
		}
		calls++
		d, ok := bd.Golden.PlanVectorDelta(a, info)
		e := planEntry{addr: a, kind: info.Kind, seed: stimulusSeed(opts.Seed, a)}
		switch {
		case ok && d.Inert():
			continue // decode-identical to golden: benign
		case ok:
			e.act = planVector
			e.delta = d
		case bd.Golden.DemotedWindowable(info):
			e.act = planCarry
		default:
			e.act = planScalar
		}
		p.entries = append(p.entries, e)
	}
	plannerCalls.Add(calls)
	return p
}

// planCacheFor exposes cache internals to tests.
func planCacheFor(p *place.Placed) *planCacheEntry {
	if st := placementFor(p, false); st != nil {
		return st.plan.Load()
	}
	return nil
}
