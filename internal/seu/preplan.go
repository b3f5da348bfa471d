package seu

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
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
// once per campaign: every selected bit gets a planEntry recording its
// disposition and, for lane-eligible bits, the ready-to-apply overlay delta
// and per-injection stimulus seed. Workers then just walk their window of
// the entry slice. The plan (and the compiled struct-of-arrays design it
// carries) is cached per placement keyed by the board's CampaignFingerprint
// and the selection-relevant options, so repeated campaigns over the same
// substrate — crosscheck lattice points, benchmark variants, chunked
// re-runs — skip both the compile and the classification pass entirely.

// planAct is a sampled bit's precomputed disposition.
type planAct uint8

const (
	// planPad: padding or extra-frame bit, provably benign.
	planPad planAct = iota
	// planTriage: the static cone-of-influence triage retired the bit.
	planTriage
	// planBenign: the planner proved the flip decode-identical to golden.
	planBenign
	// planVector: lane-eligible; delta holds the overlay.
	planVector
	// planCarry: scalar observe/repair, then lane-carried clean/persist
	// windows (DemotedWindowable).
	planCarry
	// planScalar: fully scalar (e.g. BRAM port bits).
	planScalar
)

// planEntry is one sampled bit's precomputed campaign work item.
type planEntry struct {
	addr  device.BitAddr
	seed  int64 // stimulus seed (planVector/planCarry/planScalar)
	delta fpga.VectorDelta
	kind  device.BitKind
	act   planAct
}

// prePlan is a campaign's classified injection set plus the compiled design
// every lane machine shares. Immutable once built; shared read-only across
// workers, chunks, and pooled replicas.
type prePlan struct {
	comp    *fpga.CompiledDesign
	entries []planEntry
}

// window returns the entries with lo <= addr < hi (entries ascend by addr).
func (p *prePlan) window(lo, hi int64) []planEntry {
	i := sort.Search(len(p.entries), func(k int) bool { return int64(p.entries[k].addr) >= lo })
	j := sort.Search(len(p.entries), func(k int) bool { return int64(p.entries[k].addr) >= hi })
	return p.entries[i:j]
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

// maxCachedPlanEntries bounds the per-placement plan cache: a full-device
// exhaustive sweep's entry slice can reach hundreds of MB, which is not
// worth parking between campaigns. The compiled design (small) is cached
// regardless.
const maxCachedPlanEntries = 1 << 20

var planCaches sync.Map // map[*place.Placed]*planCacheEntry

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
	var comp *fpga.CompiledDesign
	if e, ok := planCaches.Load(bd.Placed); ok {
		ce := e.(*planCacheEntry)
		if ce.fp == key.fp {
			if ce.plan != nil && ce.key == key {
				planCacheHits.Add(1)
				return ce.plan
			}
			// Same substrate, different selection (or uncached entries):
			// reuse the compiled design, rebuild the classification.
			comp = ce.comp
		}
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
	planCaches.Store(bd.Placed, ce)
	return plan
}

// buildPrePlan runs the one-pass classification over the sampled range.
// The planner runs against the base board's golden decode — identical to
// every replica's — so its verdicts hold for all workers.
func buildPrePlan(bd *board.SLAAC1V, opts Options, limit int64, tri *triage, comp *fpga.CompiledDesign) *prePlan {
	g := bd.Geometry()
	p := &prePlan{comp: comp}
	for a := device.BitAddr(0); int64(a) < limit; a++ {
		if !selected(opts, a) {
			continue
		}
		info := g.Classify(a)
		e := planEntry{addr: a, kind: info.Kind}
		switch {
		case info.Kind == device.KindPad || info.Kind == device.KindExtra:
			e.act = planPad
		case tri.inert(a):
			e.act = planTriage
		default:
			plannerCalls.Add(1)
			d, ok := bd.Golden.PlanVectorDelta(a, info)
			switch {
			case ok && d.Inert():
				e.act = planBenign
			case ok:
				e.act = planVector
				e.delta = d
				e.seed = stimulusSeed(opts.Seed, a)
			case bd.Golden.DemotedWindowable(info):
				e.act = planCarry
				e.seed = stimulusSeed(opts.Seed, a)
			default:
				e.act = planScalar
				e.seed = stimulusSeed(opts.Seed, a)
			}
		}
		p.entries = append(p.entries, e)
	}
	return p
}

// planCacheFor exposes cache internals to tests.
func planCacheFor(p *place.Placed) *planCacheEntry {
	v, _ := planCaches.Load(p)
	if v == nil {
		return nil
	}
	return v.(*planCacheEntry)
}
