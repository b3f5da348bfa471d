package seu

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync/atomic"

	"repro/internal/board"
	"repro/internal/device"
	"repro/internal/fpga"
)

// Amortized batch planning. A vector-kernel campaign used to classify every
// sampled bit (Classify + PlanVectorDelta) inside the per-worker injection
// loop, once per chunk visit. The pre-plan hoists that into one pass over
// the sampled address range, run once per campaign. The plan is sparse:
// only bits that need board work get a planEntry (disposition,
// ready-to-apply overlay delta, stimulus seed); padding, extra-frame,
// triage-inert and planner-benign bits — the vast majority on a large
// device — are only counted, per fixed block of addresses. Workers walk their window of the entry slice and fold the
// window's injection tallies from whole blocks plus a bit-by-bit rescan of
// the two partial edge blocks. NewChunkRunner builds the plan (and the
// compiled struct-of-arrays design it carries) once per campaign; the
// campaign's clones share it.

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
// workers and chunks.
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

// Campaign-plane counters.
var (
	plannerCalls   atomic.Int64 // PlanVectorDelta invocations (≤1 per sampled bit per campaign)
	plansBuilt     atomic.Int64 // pre-plans built (one per vector campaign)
	replicasCloned atomic.Int64 // worker board replicas cloned
)

// PlanCacheStats returns (0, pre-plans built). Every campaign builds its
// own plan; nothing is cached across campaigns. The name and the zero hit
// count stay because the repository benchmark reports them as
// seu.plan_cache_hits and seu.plan_cache_misses.
func PlanCacheStats() (hits, misses int64) {
	return 0, plansBuilt.Load()
}

// PoolStats returns (0, board replicas cloned). Every worker replica is a
// fresh clone; nothing is pooled across campaigns. The name and the zero
// hit count stay because the repository benchmark reports them as
// seu.pool_hits and seu.pool_misses.
func PoolStats() (hits, misses int64) {
	return 0, replicasCloned.Load()
}

// pprof label sets for the vector path's stages (satellite of the SoA
// work): -cpuprofile output attributes time to plan/simulate/emit.
var (
	labelsPlan     = pprof.Labels("kernel", "vector", "phase", "plan")
	labelsSimulate = pprof.Labels("kernel", "vector", "phase", "simulate")
	labelsEmit     = pprof.Labels("kernel", "vector", "phase", "emit")
)

// campaignPlan compiles bd's design and classifies the campaign's sampled
// range, once per campaign. The oracle needs no plan, and designs with
// history-coupled state (or no design at all) run every bit on the scalar
// path regardless of Kernel; for those it returns nil.
func campaignPlan(bd *board.SLAAC1V, opts Options, limit int64, tri *triage) *prePlan {
	if opts.Kernel != KernelVector || bd.DUT.HistoryCoupled() || bd.DUT.Unprogrammed() {
		return nil
	}
	plansBuilt.Add(1)
	var plan *prePlan
	pprof.Do(context.Background(), labelsPlan, func(context.Context) {
		plan = buildPrePlan(bd, opts, limit, tri, board.CompileVector(bd))
	})
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
