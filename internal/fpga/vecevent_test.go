package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// eventSweepPair builds two lane machines over one compiled random design —
// one running the event-driven drain, one the full-sweep loop — with the
// same batch of lane-expressible deltas applied to both, plus the delta
// list for mid-run repair. Shared setup for the equivalence tests below.
func eventSweepPair(t testing.TB, seed int64, lanes int) (ev, sv *Vector, deltas []VectorDelta, g device.Geometry, rng *rand.Rand) {
	g = device.Tiny()
	rng = rand.New(rand.NewSource(seed))
	bs := bitstream.Full(vectorEligibleMemory(g, rng))
	f := New(g)
	f.SetEventDriven(false)
	if err := f.FullConfigure(bs); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.Pins(); p++ {
		f.SetPin(p, false)
	}
	f.Reset()

	total := g.TotalBits()
	seen := make(map[device.BitAddr]bool)
	for len(deltas) < lanes {
		a := device.BitAddr(rng.Int63n(total))
		if seen[a] {
			continue
		}
		seen[a] = true
		d, ok := f.PlanVectorDelta(a, g.Classify(a))
		if !ok || d.Inert() {
			continue
		}
		deltas = append(deltas, d)
	}

	comp := f.Compile()
	ev = NewVector(comp)
	sv = NewVector(comp)
	sv.SetEventDriven(false)
	ev.ResetBatch(lanes)
	sv.ResetBatch(lanes)
	for i, d := range deltas {
		ev.ApplyDelta(i, d)
		sv.ApplyDelta(i, d)
	}
	return ev, sv, deltas, g, rng
}

// checkEventMatchesSweep drives the event-drain and full-sweep lane machines
// through identical stimulus, a mid-run repair, and (optionally) a MaxSweeps
// bound low enough to freeze oscillating designs mid-transient, asserting
// the two kernels stay state-identical word for word after every clock.
// This is the drain's core exactness property: one worklist round must be
// bit-for-bit one sweep, end-of-round long-line refresh and pending-lane
// holds included.
func checkEventMatchesSweep(t *testing.T, seed int64, lanes, maxSweeps int) {
	t.Helper()
	ev, sv, deltas, g, rng := eventSweepPair(t, seed, lanes)
	if maxSweeps > 0 {
		ev.MaxSweeps = maxSweeps
		sv.MaxSweeps = maxSweeps
	}
	for step := 0; step < 30; step++ {
		if step == 15 {
			for i := 0; i < lanes; i += 2 {
				ev.RemoveDelta(i, deltas[i])
				sv.RemoveDelta(i, deltas[i])
			}
		}
		for p := 0; p < g.Pins(); p++ {
			w := rng.Uint64()
			ev.SetPinWord(p, w)
			sv.SetPinWord(p, w)
		}
		ev.Step()
		sv.Step()
		if d := DivergenceWord(ev, sv); d != 0 {
			t.Fatalf("seed %d step %d maxSweeps %d: event kernel diverged from sweep kernel in lanes %016x",
				seed, step, ev.MaxSweeps, d)
		}
	}
}

// TestEventVectorSettleMatchesSweep pins the event-driven drain to the
// full-sweep loop over random designs, batches, and stimulus: identical
// state words after every Step, through mid-run repair.
func TestEventVectorSettleMatchesSweep(t *testing.T) {
	run := func(seed int64) bool {
		checkEventMatchesSweep(t, seed, 64, 0)
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestEventVectorFreezeParity re-runs the equivalence with MaxSweeps clamped
// to 3, so oscillating random designs freeze mid-transient every Settle: the
// drain's round bound and the sweep loop's sweep bound must cut the
// trajectory at the identical point, and the frozen pending worklist must
// resume it identically next Settle.
func TestEventVectorFreezeParity(t *testing.T) {
	for _, seed := range []int64{2, 3, 5, 8} {
		checkEventMatchesSweep(t, seed, 64, 3)
	}
}

// TestEventVectorSettleAllocs is the allocation audit of the hot drain loop:
// after warm-up (stale-list and overlay-subscription capacities grown; the
// worklist bitsets are sized up front), a full stimulus-change + Step cycle
// must not allocate at all — the drain reuses every scratch structure across
// batches.
func TestEventVectorSettleAllocs(t *testing.T) {
	ev, _, _, g, rng := eventSweepPair(t, 42, 64)
	step := func() {
		for p := 0; p < g.Pins(); p++ {
			ev.SetPinWord(p, rng.Uint64())
		}
		ev.Step()
	}
	for i := 0; i < 10; i++ {
		step() // warm scratch capacities
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("event drain allocated %.1f times per Step; want 0", allocs)
	}
}

// BenchmarkEventVectorStep measures one full-batch Step (settle, clock,
// settle) of the event drain under per-step random stimulus on all 64 lanes.
func BenchmarkEventVectorStep(b *testing.B) {
	ev, _, _, g, rng := eventSweepPair(b, 42, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < g.Pins(); p++ {
			ev.SetPinWord(p, rng.Uint64())
		}
		ev.Step()
	}
}
