package seu

import (
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
)

// TestFastSimEquivalence is the exactness contract for the production path
// and its lock-step convergence early exit: for every catalog design that
// fits the test geometry, a vector-kernel fastsim-on campaign — with or
// without triage, sequential or sharded — produces a report byte-identical
// to the oracle: the scalar sweep kernel, fastsim and triage off,
// sequential.
func TestFastSimEquivalence(t *testing.T) {
	ran := 0
	sawSkip := false
	for _, spec := range designs.Catalog() {
		spec := spec
		p, err := place.Place(spec.Build(), device.Tiny())
		if err != nil {
			continue // design exceeds the test geometry; covered at full scale by CI smoke runs
		}
		ran++
		t.Run(spec.Name, func(t *testing.T) {
			run := func(kernel Kernel, fastsim, triage bool, workers int) *Report {
				bd, err := board.New(p, 7)
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions()
				opts.Sample = 0.06
				opts.Seed = 31
				opts.Workers = workers
				opts.Triage = triage
				opts.FastSim = fastsim
				opts.Kernel = kernel
				rep, err := Run(bd, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			ref := run(KernelSweep, false, false, 1)
			if ref.Injections == 0 {
				t.Fatal("campaign injected nothing")
			}
			if ref.CyclesSkipped != 0 {
				t.Fatalf("fastsim-off run skipped %d cycles", ref.CyclesSkipped)
			}
			for _, triage := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					got := run(KernelVector, true, triage, workers)
					assertReportsEqual(t, ref, got)
					if got.CyclesSkipped > 0 {
						sawSkip = true
					}
				}
			}
		})
	}
	if ran < 5 {
		t.Fatalf("only %d catalog designs fit the test geometry", ran)
	}
	if !sawSkip {
		t.Fatal("convergence early exit never skipped a cycle on any catalog design")
	}
}

// TestSweepOracleSimulatesEveryCycle: convergence credit lives only in the
// vector lanes. With FastSim on, the sweep oracle still steps every cycle —
// no cycle skipped, the same cycle count and results as the FastSim-off
// oracle — while the vector kernel on the same campaign credits cycles.
func TestSweepOracleSimulatesEveryCycle(t *testing.T) {
	off := vectorCampaign(t, func(o *Options) { o.Kernel, o.FastSim = KernelSweep, false })
	on := vectorCampaign(t, func(o *Options) { o.Kernel, o.FastSim = KernelSweep, true })
	if on.CyclesSkipped != 0 {
		t.Fatalf("sweep oracle skipped %d cycles with FastSim on", on.CyclesSkipped)
	}
	if on.CyclesSimulated != off.CyclesSimulated {
		t.Fatalf("sweep oracle simulated %d cycles with FastSim on, %d with it off", on.CyclesSimulated, off.CyclesSimulated)
	}
	assertReportsEqual(t, off, on)
	vec := vectorCampaign(t, func(o *Options) { o.Kernel, o.FastSim = KernelVector, true })
	if vec.CyclesSkipped == 0 {
		t.Fatal("vector kernel credited no cycles with FastSim on")
	}
	assertReportsEqual(t, off, vec)
}
