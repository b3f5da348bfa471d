package seu

import (
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
)

// TestPrePlanAmortizesPlanner is the regression test for the amortized
// batch planner: one campaign may invoke PlanVectorDelta at most once per
// sampled bit (the pre-plan pass), regardless of worker count, chunking, or
// batch boundaries.
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
	if _, err := Run(bd, opts); err != nil {
		t.Fatal(err)
	}
	calls := plannerCalls.Load() - before
	if calls == 0 {
		t.Fatal("vector campaign never consulted the planner")
	}
	if calls > sampled {
		t.Fatalf("planner invoked %d times for %d sampled bits — classification is not amortized", calls, sampled)
	}

	// A different selection over the same board must still cap planner
	// calls at one per sampled bit.
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
		t.Fatalf("second campaign invoked planner %d times for %d sampled bits", extra, sampled2)
	}
}

// TestPrePlanCacheKeying pins the plan a vector campaign's runner carries:
// built once in NewChunkRunner, with the compiled design, and sparse.
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
	_, built := PlanCacheStats()
	r, err := NewChunkRunner(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, after := PlanCacheStats(); after != built+1 {
		t.Fatalf("NewChunkRunner built %d plans, want 1", after-built)
	}
	if r.plan == nil {
		t.Fatal("vector campaign's runner carries no plan")
	}
	if r.plan.comp == nil {
		t.Fatal("plan lost the compiled design")
	}
	checkSparseEntries(t, bd, r.plan, r.tri)
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
		case e.act != planVector && e.act != planCarry:
			t.Fatalf("bit %d: unknown disposition %d", e.addr, e.act)
		}
	}
}
