package fpga

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// eventVector builds a lane machine over one compiled random design with a
// batch of lane-expressible deltas applied — the fixture of the allocation
// audit and the drain benchmark below.
func eventVector(t testing.TB, seed int64, lanes int) (*Vector, device.Geometry, *rand.Rand) {
	g := device.Tiny()
	rng := rand.New(rand.NewSource(seed))
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
	var deltas []VectorDelta
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

	ev := NewVector(f.Compile())
	ev.ResetBatch(lanes)
	for i, d := range deltas {
		ev.ApplyDelta(i, d)
	}
	return ev, g, rng
}

// TestEventVectorSettleMatchesSweep pins the event-driven drain to the
// reference oracle, the scalar full-sweep kernel: on fixed random designs,
// each of 64 lanes must match an independent scalar sweep-kernel device
// after every Settle and clock edge, through a mid-run repair — one
// worklist round must be bit-for-bit one sweep, end-of-round long-line
// refresh and pending-lane holds included.
func TestEventVectorSettleMatchesSweep(t *testing.T) {
	for _, seed := range []int64{2, 3} {
		checkVectorAgainstScalars(t, seed, 64, 0)
	}
}

// TestEventVectorFreezeParity re-runs the oracle comparison with MaxSweeps
// clamped to 3 on both sides, so oscillating random designs freeze
// mid-transient every Settle: the drain's round bound and the scalar
// sweep bound must cut the trajectory at the identical point, and the
// frozen pending worklist must resume it the way the memoryless sweep does.
func TestEventVectorFreezeParity(t *testing.T) {
	for _, seed := range []int64{2, 3, 5, 8} {
		checkVectorAgainstScalars(t, seed, 64, 3)
	}
}

// TestEventVectorSettleAllocs is the allocation audit of the hot drain loop:
// after warm-up (stale-list and overlay-subscription capacities grown; the
// worklist bitsets are sized up front), a full stimulus-change + Step cycle
// must not allocate at all — the drain reuses every scratch structure across
// batches.
func TestEventVectorSettleAllocs(t *testing.T) {
	ev, g, rng := eventVector(t, 42, 64)
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
	ev, g, rng := eventVector(b, 42, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < g.Pins(); p++ {
			ev.SetPinWord(p, rng.Uint64())
		}
		ev.Step()
	}
}
