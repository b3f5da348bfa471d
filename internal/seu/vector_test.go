package seu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
)

// compareReports asserts every report-visible field the campaign promises is
// kernel-invariant. WallTime and the cycle diagnostics are excluded: the
// vector kernel's per-lane lock detection legitimately skips a different
// number of cycles than the scalar frame-compare tracker.
func compareReports(t *testing.T, label string, want, got *Report) {
	t.Helper()
	if got.Design != want.Design || got.Geom != want.Geom || got.SlicesUsed != want.SlicesUsed {
		t.Fatalf("%s: header differs: %q/%v/%d vs %q/%v/%d",
			label, got.Design, got.Geom, got.SlicesUsed, want.Design, want.Geom, want.SlicesUsed)
	}
	if got.Injections != want.Injections || got.Failures != want.Failures || got.Persistent != want.Persistent {
		t.Fatalf("%s: tallies differ: inj %d/%d fail %d/%d persist %d/%d",
			label, got.Injections, want.Injections, got.Failures, want.Failures, got.Persistent, want.Persistent)
	}
	if !reflect.DeepEqual(got.InjectionsByKind, want.InjectionsByKind) {
		t.Fatalf("%s: InjectionsByKind differ: %v vs %v", label, got.InjectionsByKind, want.InjectionsByKind)
	}
	if !reflect.DeepEqual(got.FailuresByKind, want.FailuresByKind) {
		t.Fatalf("%s: FailuresByKind differ: %v vs %v", label, got.FailuresByKind, want.FailuresByKind)
	}
	if got.SimulatedTime != want.SimulatedTime {
		t.Fatalf("%s: SimulatedTime differs: %v vs %v", label, got.SimulatedTime, want.SimulatedTime)
	}
	if !reflect.DeepEqual(got.SensitiveBits, want.SensitiveBits) {
		t.Fatalf("%s: SensitiveBits differ (%d vs %d records)", label, len(got.SensitiveBits), len(want.SensitiveBits))
	}
}

// vectorCampaign runs MULT 12 on Tiny under opts-modifying f and returns the
// report.
func vectorCampaign(t *testing.T, mod func(*Options)) *Report {
	t.Helper()
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	opts := DefaultOptions()
	opts.Sample = 0.15
	opts.Seed = 11
	opts.Workers = 1
	opts.Triage = false
	mod(&opts)
	rep, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestVectorKernelMatchesSweep pins the tentpole invariant at the batch-size
// edges: campaigns capped at 1 (single-lane batch), 63 (one short of a
// word), 64 (exactly one full batch), and 65 (a full batch plus a partial
// final batch) injections must report byte-identically under the sweep and
// vector kernels, with the early exit both off and on.
func TestVectorKernelMatchesSweep(t *testing.T) {
	for _, fast := range []bool{false, true} {
		for _, maxBits := range []int64{1, 63, 64, 65, 0} {
			ref := vectorCampaign(t, func(o *Options) {
				o.Kernel = KernelSweep
				o.FastSim = fast
				o.MaxBits = maxBits
			})
			got := vectorCampaign(t, func(o *Options) {
				o.Kernel = KernelVector
				o.FastSim = fast
				o.MaxBits = maxBits
			})
			label := "maxbits=" + string(rune('0'+maxBits%10))
			if maxBits == 0 {
				if ref.Injections < 66 {
					t.Fatalf("uncapped campaign too small to exercise batching: %d injections", ref.Injections)
				}
				label = "uncapped"
			}
			if fast {
				label += "/fast"
			}
			compareReports(t, label, ref, got)
			if !fast && got.CyclesSkipped != 0 {
				t.Fatalf("%s: vector kernel skipped %d cycles with FastSim off", label, got.CyclesSkipped)
			}
		}
	}
}

// TestVectorKernelCounters pins the process-wide activity counters the
// daemon exports: a vector campaign must record worklist drains and settled
// rounds (the event drain performed work), and a fastsim vector campaign on
// a convergent design must record fast-forwarded cycles. Counters are
// cumulative and shared across tests, so only deltas are asserted.
func TestVectorKernelCounters(t *testing.T) {
	s0, d0, r0, f0 := VectorKernelStats()
	vectorCampaign(t, func(o *Options) { o.Kernel = KernelVector; o.FastSim = true })
	s1, d1, r1, f1 := VectorKernelStats()
	if s1 <= s0 || d1 <= d0 {
		t.Fatalf("vector campaign advanced sweeps %d->%d drains %d->%d; want both to increase", s0, s1, d0, d1)
	}
	if f1 <= f0 {
		t.Fatalf("fastsim vector campaign advanced fast-forward cycles %d->%d; want an increase", f0, f1)
	}
	// The uncapped campaign plans far more than 64 injections, so the batch
	// scheduler must have refilled retired lanes mid-batch.
	if r1 <= r0 {
		t.Fatalf("uncapped vector campaign advanced lane refills %d->%d; want an increase", r0, r1)
	}
}

// TestVectorKernelWorkerIndependence pins batch-composition independence:
// worker count changes where chunk boundaries fall, hence which injections
// share a batch, and must not change the report.
func TestVectorKernelWorkerIndependence(t *testing.T) {
	ref := vectorCampaign(t, func(o *Options) { o.Kernel = KernelVector })
	for _, w := range []int{2, 4} {
		got := vectorCampaign(t, func(o *Options) { o.Kernel = KernelVector; o.Workers = w })
		compareReports(t, "workers", ref, got)
	}
}

// TestEmitBatchOrderIndependent is the regression test for the sorted
// emission path: lanes retire in data-dependent order, and the accumulator
// fold must not depend on it. Shuffling the lane slice before emitBatch must
// produce an identical accumulator, including the order of collected bits.
func TestEmitBatchOrderIndependent(t *testing.T) {
	opts := DefaultOptions()
	mkLanes := func() []laneRun {
		return []laneRun{
			{addr: 900, kind: device.KindLUT, failed: true, firstErr: 3, failedOutputs: []int{0, 2}, persistent: true, cycles: 51, skipped: 4},
			{addr: 17, kind: device.KindInMux, failed: true, firstErr: 9, failedOutputs: []int{1}, cycles: 40},
			{addr: 400, kind: device.KindFF, cycles: 32, skipped: 8},
			{addr: 23, kind: device.KindLUT, failed: true, firstErr: 1, failedOutputs: []int{3}, persistent: true, cycles: 60},
			{addr: 1300, kind: device.KindLongLine, cycles: 32},
		}
	}
	ref := newChunkResult(0)
	emitBatch(mkLanes(), opts, ref)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		lanes := mkLanes()
		rng.Shuffle(len(lanes), func(i, j int) { lanes[i], lanes[j] = lanes[j], lanes[i] })
		acc := newChunkResult(0)
		emitBatch(lanes, opts, acc)
		if acc.Failures != ref.Failures || acc.Persistent != ref.Persistent ||
			acc.CyclesSimulated != ref.CyclesSimulated || acc.CyclesSkipped != ref.CyclesSkipped {
			t.Fatalf("trial %d: tallies differ after shuffle", trial)
		}
		if !reflect.DeepEqual(acc.FailuresByKind, ref.FailuresByKind) {
			t.Fatalf("trial %d: failByKind differs after shuffle", trial)
		}
		if !reflect.DeepEqual(acc.Bits, ref.Bits) {
			t.Fatalf("trial %d: bit records differ after shuffle:\n%v\n%v", trial, acc.Bits, ref.Bits)
		}
	}
}
