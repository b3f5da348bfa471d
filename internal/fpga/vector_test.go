package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// vectorEligibleMemory builds the dense random configuration the event-kernel
// property test uses, then clears every history-coupled feature — SRL mode
// bits and writable BRAM ports — so the decoded device is vector-eligible
// while still exercising LUTs, routing, long lines, FFs, and read-only BRAM.
func vectorEligibleMemory(g device.Geometry, rng *rand.Rand) *bitstream.Memory {
	total := g.TotalBits()
	m := bitstream.NewMemory(g)
	for i := int64(0); i < total/6; i++ {
		m.Set(device.BitAddr(rng.Int63n(total)), true)
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			for l := 0; l < device.LUTsPerCLB; l++ {
				m.Set(g.LUTModeBitAddr(r, c, l), false)
			}
		}
	}
	for bc := 0; bc < g.BRAMCols; bc++ {
		for blk := 0; blk < g.BRAMBlocksPerCol(); blk++ {
			m.Set(g.BRAMPortBitAddr(bc, blk, device.BRAMPortWEBase), false)
		}
	}
	return m
}

// laneMatchesScalar compares lane of v against the full visible state of a
// scalar device, returning a description of the first divergence ("" = none).
func laneMatchesScalar(v *Vector, lane int, s *FPGA) string {
	for i := range s.netVal {
		if (v.state[i]>>uint(lane)&1 == 1) != s.netVal[i] {
			return "net"
		}
	}
	for i := range s.lutVal {
		if (v.lut[i]>>uint(lane)&1 == 1) != s.lutVal[i] {
			return "lutVal"
		}
	}
	for i := range s.ffVal {
		if (v.ff[i]>>uint(lane)&1 == 1) != s.ffVal[i] {
			return "ffVal"
		}
	}
	for bi := range s.bramOut {
		base := int(v.c.bramBase) + bi*device.BRAMWidth
		for j := 0; j < device.BRAMWidth; j++ {
			if (v.state[base+j]>>uint(lane)&1 == 1) != (s.bramOut[bi]>>uint(j)&1 == 1) {
				return "bramOut"
			}
		}
	}
	return ""
}

// checkVectorAgainstScalars drives a batch of `lanes` single-bit fault
// universes through the vector machine alongside `lanes` independent scalar
// sweep-kernel devices carrying the same injections and identical per-lane
// stimulus, with a mid-run repair at step 15, asserting every lane's full
// visible state matches its scalar witness after every Settle and every
// clock edge — the property the vector kernel's exactness rests on. A
// positive maxSweeps clamps the settling bound on both sides, so
// oscillating random designs freeze mid-transient: the drain's round bound
// must cut each lane's trajectory where the scalar sweep bound does, and
// the frozen pending worklist must resume it the way the memoryless sweep
// does.
func checkVectorAgainstScalars(t *testing.T, seed int64, lanes, maxSweeps int) {
	t.Helper()
	g := device.Tiny()
	rng := rand.New(rand.NewSource(seed))
	bs := bitstream.Full(vectorEligibleMemory(g, rng))

	f := New(g)
	f.SetEventDriven(false)
	if err := f.FullConfigure(bs); err != nil {
		t.Fatal(err)
	}
	if f.HistoryCoupled() {
		t.Fatal("eligible memory decoded history-coupled")
	}
	// Canonical campaign state: pins low, user state reset.
	for p := 0; p < g.Pins(); p++ {
		f.SetPin(p, false)
	}
	f.Reset()

	// Pick `lanes` distinct lane-expressible single-bit deltas.
	total := g.TotalBits()
	addrs := make([]device.BitAddr, 0, lanes)
	deltas := make([]VectorDelta, 0, lanes)
	seen := make(map[device.BitAddr]bool)
	for len(addrs) < lanes {
		a := device.BitAddr(rng.Int63n(total))
		if seen[a] {
			continue
		}
		seen[a] = true
		d, ok := f.PlanVectorDelta(a, g.Classify(a))
		if !ok || d.Inert() {
			continue
		}
		addrs = append(addrs, a)
		deltas = append(deltas, d)
	}

	comp := f.Compile()
	gv := NewVector(comp) // clean lanes (the golden side)
	dv := NewVector(comp) // overlaid lanes (the DUT side)
	gv.ResetBatch(lanes)
	dv.ResetBatch(lanes)
	for i, d := range deltas {
		dv.ApplyDelta(i, d)
	}

	// Scalar witnesses: per lane, a clean clone and an injected clone.
	base := make([]*FPGA, lanes)
	sc := make([]*FPGA, lanes)
	for i, a := range addrs {
		base[i] = f.Clone()
		sc[i] = f.Clone()
		sc[i].InjectBit(a)
	}
	if maxSweeps > 0 {
		gv.MaxSweeps, dv.MaxSweeps = maxSweeps, maxSweeps
		for i := range sc {
			base[i].MaxSweeps, sc[i].MaxSweeps = maxSweeps, maxSweeps
		}
	}
	// phase advances every device through one third of a Step (settle,
	// clock edge, settle) and compares every lane with its witnesses.
	phase := func(step int, what string, vec func(*Vector), scalar func(*FPGA)) {
		vec(gv)
		vec(dv)
		for i := 0; i < lanes; i++ {
			scalar(base[i])
			scalar(sc[i])
			if d := laneMatchesScalar(gv, i, base[i]); d != "" {
				t.Fatalf("seed %d step %d after %s: clean lane %d diverged from scalar (%s)", seed, step, what, i, d)
			}
			if d := laneMatchesScalar(dv, i, sc[i]); d != "" {
				t.Fatalf("seed %d step %d after %s: faulted lane %d (bit %d, repaired=%v) diverged from scalar (%s)",
					seed, step, what, i, addrs[i], step >= 15 && i%2 == 0, d)
			}
		}
	}
	settleScalar := func(s *FPGA) { s.Settle() }

	for step := 0; step < 30; step++ {
		if step == 15 {
			// Repair even lanes mid-run: overlay removal on the vector side,
			// flipping the injected bit back on the scalar side.
			for i := 0; i < lanes; i += 2 {
				dv.RemoveDelta(i, deltas[i])
				sc[i].InjectBit(addrs[i])
			}
		}
		for p := 0; p < g.Pins(); p++ {
			var w uint64
			for i := 0; i < lanes; i++ {
				if rng.Intn(2) == 1 {
					w |= 1 << uint(i)
					base[i].SetPin(p, true)
					sc[i].SetPin(p, true)
				} else {
					base[i].SetPin(p, false)
					sc[i].SetPin(p, false)
				}
			}
			gv.SetPinWord(p, w)
			dv.SetPinWord(p, w)
		}
		phase(step, "settle", (*Vector).Settle, settleScalar)
		phase(step, "clock", (*Vector).Clock, (*FPGA).clock)
		phase(step, "second settle", (*Vector).Settle, settleScalar)
		dw := DivergenceWord(gv, dv)
		for i := 0; i < lanes; i++ {
			// DivergenceWord must agree lane-wise with the scalar pair's
			// visible-state comparison (the lock-step early exit reads it).
			scalarDiff := laneMatchesScalar(dv, i, base[i]) != ""
			if (dw>>uint(i)&1 == 1) != scalarDiff {
				t.Fatalf("seed %d step %d: DivergenceWord lane %d = %v, scalar comparison says %v",
					seed, step, i, dw>>uint(i)&1 == 1, scalarDiff)
			}
		}
		// The early-exit scan must agree with the full scan on every
		// masked lane, whatever mix of diverged and converged lanes the
		// mask holds.
		for _, m := range []uint64{1, 1 << 63, ^uint64(0), dw, ^dw, rng.Uint64(), uint64(1) << uint(rng.Intn(64))} {
			if got := DivergenceMasked(gv, dv, m); got != dw&m {
				t.Fatalf("seed %d step %d: DivergenceMasked(%#x) = %#x, full scan says %#x", seed, step, m, got, dw&m)
			}
		}
	}
}

// TestVectorStepMatchesScalarLanes is the 64-lane property test: a random
// full batch of vector-expressible faults must track 64 independent scalar
// simulations bit for bit through stimulus, clocking, and mid-run repair.
func TestVectorStepMatchesScalarLanes(t *testing.T) {
	run := func(seed int64) bool {
		checkVectorAgainstScalars(t, seed, 64, 0)
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestVectorLaneMaskEdges exercises the live-lane mask at the boundary batch
// sizes: a single lane, one short of a full word, and a full word.
func TestVectorLaneMaskEdges(t *testing.T) {
	for _, lanes := range []int{1, 63, 64} {
		checkVectorAgainstScalars(t, int64(1000+lanes), lanes, 0)
	}
}

// TestVectorScatterLane drives scalar clones forward independently, scatters
// their mid-run state into vector lanes, and asserts the lanes track the
// scalars bit for bit afterwards — the property the demoted-injection
// clean/persist windows (carry lanes) rest on.
func TestVectorScatterLane(t *testing.T) {
	g := device.Tiny()
	rng := rand.New(rand.NewSource(77))
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

	const lanes = 7
	v := NewVector(f.Compile())
	v.ResetBatch(lanes)
	sc := make([]*FPGA, lanes)
	var snap VectorSnapshot
	for i := range sc {
		sc[i] = f.Clone()
		// Desynchronize: each scalar advances a different number of steps
		// under its own stimulus before being handed to a lane.
		for step := 0; step <= i*3; step++ {
			for p := 0; p < g.Pins(); p++ {
				sc[i].SetPin(p, rng.Intn(2) == 1)
			}
			sc[i].Step()
		}
		sc[i].CaptureVectorSnapshotInto(&snap)
		v.ScatterLane(i, &snap)
	}
	for step := 0; step < 20; step++ {
		for p := 0; p < g.Pins(); p++ {
			var w uint64
			for i := 0; i < lanes; i++ {
				on := rng.Intn(2) == 1
				sc[i].SetPin(p, on)
				if on {
					w |= 1 << uint(i)
				}
			}
			v.SetPinWord(p, w)
		}
		v.Step()
		for i := 0; i < lanes; i++ {
			sc[i].Step()
			if what := laneMatchesScalar(v, i, sc[i]); what != "" {
				t.Fatalf("step %d: scattered lane %d diverged from scalar (%s)", step, i, what)
			}
		}
	}
}
