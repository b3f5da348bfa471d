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
// Every block's port is enabled by a constant-one LUT (LUT 2 of the block's
// first row in the adjacent column) and its address fields are valid, so
// the block reads every clock and content flips reach the output register.
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
			r, c := g.BRAMRowBase(blk), g.BRAMAdjCol(bc)
			for i := 0; i < device.LUTBits; i++ {
				m.Set(g.LUTBitAddr(r, c, 2, i), true)
			}
			m.Set(g.OutMuxBitAddr(r, c, 2), false)
			const en = 1 | 2<<4 // valid, row offset 0, output 2
			for i := 0; i < device.BRAMPortInBits; i++ {
				m.Set(g.BRAMPortBitAddr(bc, blk, device.BRAMPortENBase+i), en>>i&1 == 1)
			}
			for j := 0; j < device.BRAMAddrBits; j++ {
				m.Set(g.BRAMPortBitAddr(bc, blk, device.BRAMPortAddrBase+j*device.BRAMPortInBits), true)
			}
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

// forcedBRAMLanes picks BRAM content flips for fixed lanes of a batch:
// lane 0, the last lane and a random lane, plus two more lanes patching
// lane 0's block — one in lane 0's word, one in another word. Lane 0's
// word is the one the block addresses at the canonical state, so the
// patched read actually happens. Returns lane → address.
func forcedBRAMLanes(f *FPGA, rng *rand.Rand, lanes int) map[int]device.BitAddr {
	g := f.geom
	bc, blk := rng.Intn(g.BRAMCols), rng.Intn(g.BRAMBlocksPerCol())
	bi := f.bramIndex(bc, blk)
	w0 := 0
	for j, sel := range f.brams[bi].addr {
		if f.bramPortValue(bi, sel) {
			w0 |= 1 << uint(j)
		}
	}
	i0 := rng.Intn(device.BRAMWidth)
	other := func(x, n int) int { return (x + 1 + rng.Intn(n-1)) % n }
	at := func(w, i int) device.BitAddr { return g.BRAMContentBitAddr(bc, blk, w, i) }
	out := map[int]device.BitAddr{0: at(w0, i0)}
	if lanes < 5 {
		return out
	}
	out[lanes-1] = at(rng.Intn(device.BRAMWords), other(i0, device.BRAMWidth))
	free := rng.Perm(lanes - 2) // lanes 1..lanes-2, shuffled
	out[free[0]+1] = at(rng.Intn(device.BRAMWords), rng.Intn(device.BRAMWidth))
	out[free[1]+1] = at(w0, other(i0, device.BRAMWidth))
	out[free[2]+1] = at(other(w0, device.BRAMWords), rng.Intn(device.BRAMWidth))
	return out
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
// does. BRAM content flips sit on the lanes forcedBRAMLanes picks; the
// rest are random lane-expressible deltas.
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
	addrs := make([]device.BitAddr, lanes)
	deltas := make([]VectorDelta, lanes)
	seen := make(map[device.BitAddr]bool)
	forced := forcedBRAMLanes(f, rng, lanes)
	for _, a := range forced {
		seen[a] = true
	}
	for i := range addrs {
		a, isForced := forced[i]
		for {
			if !isForced {
				if a = device.BitAddr(rng.Int63n(total)); seen[a] {
					continue
				}
				seen[a] = true
			}
			d, ok := f.PlanVectorDelta(a, g.Classify(a))
			if ok && !d.Inert() {
				addrs[i], deltas[i] = a, d
				break
			}
			if isForced {
				t.Fatalf("BRAM content bit %d planned (%v, ok=%v), want a word overlay", a, d, ok)
			}
		}
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

// TestPlannerInertBRAMSlotsAreDecodeIdentical is the planner's soundness
// property for BRAM bits: on a design whose BRAM column is live, every
// content or port address PlanVectorDelta calls inert must leave the
// scalar decode — port bindings and cached content of every block — equal
// to golden when injected, and every content address it maps to a word
// overlay must change exactly that word bit.
func TestPlannerInertBRAMSlotsAreDecodeIdentical(t *testing.T) {
	for _, g := range []device.Geometry{device.Tiny(), device.Small()} {
		rng := rand.New(rand.NewSource(11))
		f := New(g)
		if err := f.FullConfigure(bitstream.Full(vectorEligibleMemory(g, rng))); err != nil {
			t.Fatal(err)
		}
		golden := f.Clone()
		fl := int64(g.FrameLength())
		var inert, words int
		for a := int64(g.CLBFrames()) * fl; a < int64(g.CLBFrames()+g.BRAMFrames())*fl; a++ {
			addr := device.BitAddr(a)
			info := g.Classify(addr)
			d, ok := f.PlanVectorDelta(addr, info)
			if !ok {
				if info.Kind != device.KindBRAMPort {
					t.Fatalf("%s: content bit %d demoted", g, a)
				}
				continue
			}
			f.InjectBit(addr)
			for bi := range f.brams {
				if f.brams[bi] != golden.brams[bi] {
					t.Fatalf("%s: bit %d (inert=%v) changed block %d's port binding", g, a, d.Inert(), bi)
				}
				for w, v := range f.bramMem[bi] {
					want := golden.bramMem[bi][w]
					if !d.Inert() && int32(bi) == d.clb && w == int(d.sel) {
						want ^= 1 << d.bit
					}
					if v != want {
						t.Fatalf("%s: bit %d (inert=%v) left block %d word %d = %#x, want %#x", g, a, d.Inert(), bi, w, v, want)
					}
				}
			}
			f.InjectBit(addr)
			if d.Inert() {
				inert++
			} else {
				words++
			}
		}
		if want := g.BRAMBlocks() * device.BRAMWords * device.BRAMWidth; words != want {
			t.Errorf("%s: %d word overlays, want %d", g, words, want)
		}
		if inert == 0 {
			t.Errorf("%s: no inert BRAM slot", g)
		}
	}
}
