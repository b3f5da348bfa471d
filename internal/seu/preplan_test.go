package seu

import (
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
)

// TestPrePlanAmortizesPlanner is the regression test for the amortized
// batch planner: one campaign may invoke PlanVectorDelta at most once per
// sampled bit (the pre-plan pass), regardless of worker count, chunking, or
// batch boundaries — and an identical follow-up campaign over the same
// substrate must not invoke it at all (plan-cache hit).
func TestPrePlanAmortizesPlanner(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	opts := DefaultOptions()
	opts.Kernel = KernelVector
	opts.Sample = 0.15
	opts.Seed = 11
	opts.Workers = 2
	opts.Triage = false

	limit, _ := selectionPlan(opts, bd.Geometry().TotalBits())
	var sampled int64
	for a := device.BitAddr(0); int64(a) < limit; a++ {
		if selected(opts, a) {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("campaign sampled no bits")
	}

	before := plannerCalls.Load()
	ref, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	calls := plannerCalls.Load() - before
	if calls == 0 {
		t.Fatal("vector campaign never consulted the planner")
	}
	if calls > sampled {
		t.Fatalf("planner invoked %d times for %d sampled bits — classification is not amortized", calls, sampled)
	}

	// Identical campaign, same substrate: the cached plan must serve it
	// with zero fresh planner work and a byte-identical report.
	hitsBefore, _ := PlanCacheStats()
	before = plannerCalls.Load()
	got, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if extra := plannerCalls.Load() - before; extra != 0 {
		t.Fatalf("cached campaign invoked the planner %d times", extra)
	}
	if hitsAfter, _ := PlanCacheStats(); hitsAfter == hitsBefore {
		t.Fatal("identical campaign missed the plan cache")
	}
	compareReports(t, "cached-plan", ref, got)

	// A different selection over the same substrate rebuilds the
	// classification (entries depend on the sampled set) but may not
	// recompile the design — and must still cap planner calls at one per
	// sampled bit.
	opts2 := opts
	opts2.Seed = 12
	var sampled2 int64
	for a := device.BitAddr(0); int64(a) < limit; a++ {
		if selected(opts2, a) {
			sampled2++
		}
	}
	before = plannerCalls.Load()
	if _, err := Run(bd, opts2); err != nil {
		t.Fatal(err)
	}
	if extra := plannerCalls.Load() - before; extra > sampled2 {
		t.Fatalf("re-keyed campaign invoked planner %d times for %d sampled bits", extra, sampled2)
	}
}

// TestPrePlanCacheKeying pins the cache-entry lifecycle: a campaign parks
// its plan under the placement, keyed by substrate fingerprint plus the
// selection-shaping options.
func TestPrePlanCacheKeying(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	opts := DefaultOptions()
	opts.Kernel = KernelVector
	opts.Sample = 0.1
	opts.Seed = 7
	opts.Workers = 1
	opts.MaxBits = 200
	if _, err := Run(bd, opts); err != nil {
		t.Fatal(err)
	}
	ce := planCacheFor(bd.Placed)
	if ce == nil {
		t.Fatal("vector campaign left no plan-cache entry")
	}
	if ce.fp != bd.CampaignFingerprint() {
		t.Fatal("cached entry fingerprint does not match the board substrate")
	}
	if ce.plan == nil {
		t.Fatal("small campaign's plan was not cached")
	}
	if ce.comp == nil {
		t.Fatal("cache entry lost the compiled design")
	}
	checkSparseEntries(t, bd, ce.plan, newTriage(bd))
}

// checkSparseEntries asserts that plan holds only bits needing board work,
// strictly ascending: no padding, extra-frame, triage-inert or
// planner-benign bit may take an entry.
func checkSparseEntries(t *testing.T, bd *board.SLAAC1V, plan *prePlan, tri *triage) {
	t.Helper()
	g := bd.Geometry()
	for i, e := range plan.entries {
		if i > 0 && e.addr <= plan.entries[i-1].addr {
			t.Fatalf("entry %d (bit %d) does not ascend past bit %d", i, e.addr, plan.entries[i-1].addr)
		}
		info := g.Classify(e.addr)
		switch {
		case info.Kind == device.KindPad || info.Kind == device.KindExtra:
			t.Fatalf("bit %d: %v bit holds a plan entry", e.addr, info.Kind)
		case tri.inert(e.addr):
			t.Fatalf("bit %d: triage-inert bit holds a plan entry", e.addr)
		case e.act == planVector && e.delta.Inert():
			t.Fatalf("bit %d: planner-benign bit holds a plan entry", e.addr)
		case e.act != planVector && e.act != planCarry && e.act != planScalar:
			t.Fatalf("bit %d: unknown disposition %d", e.addr, e.act)
		}
	}
}

// TestPlacementCachesBounded pins the eviction rule of the per-placement
// caches: after campaigns on more placements than maxCachedPlacements, the
// least recently used placement's plan-cache entry and replica pool are
// gone, the recent ones stay, and repeated campaigns on one placement keep
// hitting the plan cache.
func TestPlacementCachesBounded(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sample = 0.1
	opts.Seed = 3
	opts.Workers = 2
	var boards []*board.SLAAC1V
	for i := 0; i <= maxCachedPlacements; i++ {
		bd := boardFor(t, spec.Build(), device.Tiny())
		if _, err := Run(bd, opts); err != nil {
			t.Fatal(err)
		}
		if planCacheFor(bd.Placed) == nil || replicaPoolFor(bd.Placed) == nil {
			t.Fatalf("campaign %d left no plan-cache entry or replica pool", i)
		}
		boards = append(boards, bd)
	}
	if planCacheFor(boards[0].Placed) != nil {
		t.Fatal("least recently used placement kept its plan-cache entry")
	}
	if replicaPoolFor(boards[0].Placed) != nil {
		t.Fatal("least recently used placement kept its replica pool")
	}
	for i, bd := range boards[1:] {
		if planCacheFor(bd.Placed) == nil || replicaPoolFor(bd.Placed) == nil {
			t.Fatalf("recent placement %d was evicted", i+1)
		}
	}

	last := boards[len(boards)-1]
	for i := 0; i < 3; i++ {
		hits, _ := PlanCacheStats()
		if _, err := Run(last, opts); err != nil {
			t.Fatal(err)
		}
		if after, _ := PlanCacheStats(); after == hits {
			t.Fatalf("repeat campaign %d on a cached placement missed the plan cache", i)
		}
	}

	// A lookup refreshes recency: the placement read last survives the
	// next insertion, the one read least recently goes.
	ps := make([]*place.Placed, maxCachedPlacements+1)
	for i := range ps {
		ps[i] = new(place.Placed)
	}
	for i := 0; i < maxCachedPlacements; i++ {
		placementFor(ps[i], true)
	}
	if placementFor(ps[0], false) == nil {
		t.Fatal("a just-stored placement is missing")
	}
	placementFor(ps[maxCachedPlacements], true)
	if placementFor(ps[1], false) != nil {
		t.Fatal("least recently used placement survived an insertion past the bound")
	}
	for _, i := range []int{0, 2, maxCachedPlacements} {
		if placementFor(ps[i], false) == nil {
			t.Fatalf("placement %d was evicted out of order", i)
		}
	}
}
