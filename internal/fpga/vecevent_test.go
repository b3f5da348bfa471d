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

// TestPendingLineRefreshHold guards the per-lane pending-refresh mask
// (llPendW, refreshLineFrom). Column long line L of the BRAM-adjacent
// column is a wired-AND of BRAM dout bit 0 and a registered CLB output X;
// consumer Y reads L and follows X's LUT in evaluation order. MaxSweeps is 1, so
// each Settle freezes after one round and Y keeps whatever L it saw
// mid-round. Per lane, pins script one clock edge at which:
//
//   - lane 0: only the BRAM output moves. X's change in lanes 1 and 2
//     triggers a refresh of L, but lane 0's scalar witness sees the move
//     only at the end-of-sweep pass, so the lane must be held;
//   - lane 1: only X moves (L's value stays 0);
//   - lane 2: both move. X is the lane's own driver, so its scalar witness
//     refreshes L mid-sweep with the BRAM move applied, and the lane must
//     not be held;
//   - lane 3: nothing moves.
//
// Refreshing every lane at the trigger fails lane 0; holding every pending
// lane fails lane 2.
func TestPendingLineRefreshHold(t *testing.T) {
	g := device.Tiny()
	ac := g.BRAMAdjCol(0)
	b := NewConfigBuilder(g)
	// feed carries west pin (r, 0) to LUT l of (r, ac) over row long line
	// r/0.
	feed := func(r, l int) {
		b.SetLUT(r, 0, 0, TruthBuf)
		b.RouteInput(r, 0, 0, 0, 4) // west pin (r, 0)
		b.DriveLL(r, 0, 0, 0)
		b.SetLUT(r, ac, l, TruthBuf)
		b.RouteInput(r, ac, l, 0, 24) // row long line r/0
	}
	// Read port: enable tied high, address bit 0 from pin a.
	b.SetLUT(0, ac, 2, TruthOne)
	b.BindBRAMEN(0, 0, 0, 2)
	feed(1, 0)
	b.BindBRAMAddr(0, 0, 0, 1, 0)
	b.SetBRAMWord(0, 0, 1, 0xFFFF)
	b.DriveBRAMDout(0, 0, 0, 0) // L = column line ac/0
	// X: pin b, registered at (3, ac) out 1, also driving L.
	feed(3, 1)
	b.SetFF(3, ac, 1, false, device.CEConstOne, 0, false)
	b.SetOutMux(3, ac, 1, true)
	b.DriveLL(3, ac, device.LongLinesPerRow, 1)
	// Y at (4, ac) buffers L (column line 0). It also reads a two-LUT
	// constant chain from the west, which puts it two combinational levels
	// deep and so after X's LUT in evaluation order. (X itself is
	// registered, hence no ordering edge.)
	b.SetLUT(4, ac-2, 0, TruthOne)
	b.SetLUT(4, ac-1, 0, TruthBuf)
	b.RouteInput(4, ac-1, 0, 0, 4) // west out 0
	b.SetLUT(4, ac, 0, TruthBuf)
	b.RouteInput(4, ac, 0, 0, 28) // column long line ac/0
	b.RouteInput(4, ac, 0, 1, 4)  // west out 0

	f, err := b.Device()
	if err != nil {
		t.Fatal(err)
	}
	f.SetEventDriven(false)
	for p := 0; p < g.Pins(); p++ {
		f.SetPin(p, false)
	}
	f.Reset()
	pinA, pinB := g.PinWest(1, 0), g.PinWest(3, 0)
	const lanes, edge = 4, 3
	script := func(lane, step int) (a, bv bool) {
		on := step >= edge
		switch lane {
		case 0:
			return on, true
		case 1:
			return false, on
		case 2:
			return on, on
		}
		return false, false
	}

	v := NewVector(f.Compile())
	v.ResetBatch(lanes)
	v.MaxSweeps = 1
	sc := make([]*FPGA, lanes)
	for i := range sc {
		sc[i] = f.Clone()
		sc[i].MaxSweeps = 1
	}
	for step := 0; step < edge+3; step++ {
		var wa, wb uint64
		for i, s := range sc {
			a, bv := script(i, step)
			s.SetPin(pinA, a)
			s.SetPin(pinB, bv)
			if a {
				wa |= 1 << uint(i)
			}
			if bv {
				wb |= 1 << uint(i)
			}
		}
		v.SetPinWord(pinA, wa)
		v.SetPinWord(pinB, wb)
		for _, ph := range []struct {
			what   string
			vec    func(*Vector)
			scalar func(*FPGA)
		}{
			{"settle", (*Vector).Settle, func(s *FPGA) { s.Settle() }},
			{"clock", (*Vector).Clock, (*FPGA).clock},
			{"second settle", (*Vector).Settle, func(s *FPGA) { s.Settle() }},
		} {
			ph.vec(v)
			for i, s := range sc {
				ph.scalar(s)
				if d := laneMatchesScalar(v, i, s); d != "" {
					t.Fatalf("step %d after %s: lane %d diverged from scalar (%s)", step, ph.what, i, d)
				}
			}
		}
	}
	// The fixture is only a guard if the scripted edge really moved lane
	// 0's BRAM output.
	if got := sc[0].BRAMOut(0) & 1; got != 1 {
		t.Fatalf("lane 0's BRAM output never moved (dout %#x)", sc[0].BRAMOut(0))
	}
}
