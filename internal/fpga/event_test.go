package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// sameVisibleState compares everything the simulation exposes between an
// event-driven device and a full-sweep device: nets, combinational values,
// flip-flops, BRAM output registers, and configuration memory. lastSweeps
// is deliberately excluded — the event kernel legitimately reports fewer
// (work-performing) rounds than the sweep kernel reports sweeps.
func sameVisibleState(t *testing.T, ev, sw *FPGA, step string) {
	t.Helper()
	for i := range ev.netVal {
		if ev.netVal[i] != sw.netVal[i] {
			t.Fatalf("%s: net %d diverged (event %v, sweep %v)", step, i, ev.netVal[i], sw.netVal[i])
		}
	}
	for i := range ev.lutVal {
		if ev.lutVal[i] != sw.lutVal[i] {
			t.Fatalf("%s: lutVal %d diverged", step, i)
		}
	}
	for i := range ev.ffVal {
		if ev.ffVal[i] != sw.ffVal[i] {
			t.Fatalf("%s: ffVal %d diverged", step, i)
		}
	}
	for i := range ev.bramOut {
		if ev.bramOut[i] != sw.bramOut[i] {
			t.Fatalf("%s: bramOut %d diverged", step, i)
		}
	}
	if !ev.cm.Equal(sw.cm) {
		t.Fatalf("%s: configuration memories diverged", step)
	}
	if ev.StateHash() != sw.StateHash() {
		t.Fatalf("%s: state hashes diverged with equal visible state", step)
	}
}

// TestEventKernelMatchesSweepKernel is the property test for the
// activity-driven kernel: on randomized (largely garbage) bitstreams —
// which produce corrupted routing, wired-AND conflicts, live SRLs, and
// oscillating loops frozen at the MaxSweeps bound — an event-driven device
// and a full-sweep device fed identical stimulus, identical injected
// faults, and identical half-latch upsets must remain visibly identical
// after every operation.
func TestEventKernelMatchesSweepKernel(t *testing.T) {
	g := device.Tiny()
	total := g.TotalBits()

	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ev, sw := randomEventPair(t, g, rng)
		if !ev.EventDriven() || sw.EventDriven() {
			t.Fatal("kernel selection not honoured")
		}
		sameVisibleState(t, ev, sw, "after configure")

		sites := ev.HalfLatchSites()
		pins := g.Pins()
		for op := 0; op < 120; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // drive a random pin
				p, v := rng.Intn(pins), rng.Intn(2) == 1
				ev.SetPin(p, v)
				sw.SetPin(p, v)
				ev.Settle()
				sw.Settle()
			case 3: // inject the same configuration upset into both
				a := device.BitAddr(rng.Int63n(total))
				ev.InjectBit(a)
				sw.InjectBit(a)
				ev.Settle()
				sw.Settle()
			case 4: // upset the same half-latch keeper in both
				if len(sites) > 0 {
					s := sites[rng.Intn(len(sites))]
					ev.FlipHalfLatch(s)
					sw.FlipHalfLatch(s)
					ev.Settle()
					sw.Settle()
				}
			case 5: // reset user state
				ev.Reset()
				sw.Reset()
			default: // clock
				ev.Step()
				sw.Step()
			}
			sameVisibleState(t, ev, sw, "mid-sequence")
		}
		return true
	}

	cfg := &quick.Config{
		MaxCount: 8,
		Values:   nil,
	}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEventKernelMatchesSweepOnCatalogStyleDesign drives the kernels
// through a structured configuration (registered logic, long lines, SRL)
// rather than random garbage, exercising the common case the random test
// rarely hits: long quiescent stretches where the event kernel does almost
// no work.
func TestEventKernelMatchesSweepOnCatalogStyleDesign(t *testing.T) {
	g := device.Tiny()
	b := NewConfigBuilder(g)
	b.SetLUT(2, 0, 0, TruthNot)
	b.RouteInput(2, 0, 0, 0, 4)
	b.SetFF(2, 0, 0, false, device.CEConstOne, 0, false)
	b.SetOutMux(2, 0, 1, true)
	b.SetLUT(2, 1, 0, TruthAnd2)
	b.RouteInput(2, 1, 0, 0, 0)
	b.RouteInput(2, 1, 0, 1, 4)

	ev := configure(t, b)
	sw := New(g)
	sw.SetEventDriven(false)
	if err := sw.FullConfigure(b.FullBitstream()); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	pin := g.PinWest(2, 0)
	for i := 0; i < 400; i++ {
		v := rng.Intn(2) == 1
		ev.SetPin(pin, v)
		sw.SetPin(pin, v)
		ev.Step()
		sw.Step()
		sameVisibleState(t, ev, sw, "catalog-style step")
	}
}

// TestSetEventDrivenMidLife flips a device from sweep to event mode after
// it has been running; the conservative invalidation must leave it visibly
// identical to a device that ran event-driven from the start.
func TestSetEventDrivenMidLife(t *testing.T) {
	g := device.Tiny()
	b := NewConfigBuilder(g)
	b.SetLUT(2, 0, 0, TruthNot)
	b.RouteInput(2, 0, 0, 0, 4)
	ev := configure(t, b)
	mixed := New(g)
	mixed.SetEventDriven(false)
	if err := mixed.FullConfigure(b.FullBitstream()); err != nil {
		t.Fatal(err)
	}
	pin := g.PinWest(2, 0)
	for i := 0; i < 10; i++ {
		ev.SetPin(pin, i%2 == 0)
		mixed.SetPin(pin, i%2 == 0)
		ev.Step()
		mixed.Step()
	}
	mixed.SetEventDriven(true)
	for i := 0; i < 10; i++ {
		ev.SetPin(pin, i%3 == 0)
		mixed.SetPin(pin, i%3 == 0)
		ev.Step()
		mixed.Step()
		sameVisibleState(t, ev, mixed, "after mid-life switch")
	}
}

// TestStateEqualAndHash covers the divergence-relevant state comparisons
// the lock-step detector is built on.
func TestStateEqualAndHash(t *testing.T) {
	g := device.Tiny()
	b := NewConfigBuilder(g)
	b.SetLUT(2, 0, 0, TruthNot)
	b.RouteInput(2, 0, 0, 0, 4)
	b.SetFF(2, 0, 0, false, device.CEConstOne, 0, false)
	b.SetOutMux(2, 0, 1, true)
	f := configure(t, b)
	c := f.Clone()

	if !StateEqual(f, c) || !UserStateEqual(f, c) {
		t.Fatal("clone must be state-equal to its original")
	}
	if f.StateHash() != c.StateHash() {
		t.Fatal("clone must hash equal to its original")
	}

	// FF divergence is core state.
	c.SetFFValue(2, 0, 0, !c.FFValue(2, 0, 0))
	if CoreStateEqual(f, c) || StateEqual(f, c) {
		t.Fatal("FF divergence must break core state equality")
	}
	if f.StateHash() == c.StateHash() {
		t.Fatal("FF divergence should change the state hash")
	}
	c.SetFFValue(2, 0, 0, f.FFValue(2, 0, 0))
	c.Settle()
	f.Settle()
	if !StateEqual(f, c) {
		t.Fatal("restoring the FF must restore equality")
	}

	// Half-latch divergence is hidden state, invisible to the core check.
	s := HalfLatchSite{Kind: HLLongLine, LL: 0}
	c.FlipHalfLatch(s)
	c.Settle()
	f.Settle()
	if HiddenStateEqual(f, c) {
		t.Fatal("keeper divergence must break hidden state equality")
	}

	// Config divergence is caught by the full comparison.
	c.RestoreHalfLatch(s)
	c.Settle()
	if !StateEqual(f, c) {
		t.Fatal("restore must bring the pair back to equality")
	}
	c.InjectBit(0)
	if StateEqual(f, c) {
		t.Fatal("config divergence must break full state equality")
	}
	if f.StateHash() == c.StateHash() {
		t.Fatal("config divergence should change the state hash")
	}
}

// TestHistoryCoupled pins the early-exit gating rule: SRL LUTs, writable
// BRAM, and stuck overlays are history-coupled; plain registered logic is
// not.
func TestHistoryCoupled(t *testing.T) {
	g := device.Tiny()
	plain := NewConfigBuilder(g)
	plain.SetLUT(2, 0, 0, TruthNot)
	plain.RouteInput(2, 0, 0, 0, 4)
	plain.SetFF(2, 0, 0, false, device.CEConstOne, 0, false)
	f := configure(t, plain)
	if f.HistoryCoupled() {
		t.Fatal("registered combinational design must not be history-coupled")
	}
	f.SetStuck(device.Segment{R: 2, C: 0, S: 4}, true)
	if !f.HistoryCoupled() {
		t.Fatal("stuck overlay must make the device history-coupled")
	}
	f.ClearAllStuck()
	if f.HistoryCoupled() {
		t.Fatal("clearing the overlay must clear history coupling")
	}

	srl := NewConfigBuilder(g)
	srl.SetSRL(2, 0, 0, true)
	srl.RouteInput(2, 0, 0, 3, 4)
	if !configure(t, srl).HistoryCoupled() {
		t.Fatal("SRL16 design must be history-coupled")
	}
}

// randomMemory returns a dense-ish random configuration: enough set bits
// that LUTs, routing, long-line drivers, FFs, and BRAM ports all come alive.
func randomMemory(g device.Geometry, rng *rand.Rand) *bitstream.Memory {
	m := bitstream.NewMemory(g)
	total := g.TotalBits()
	for i := int64(0); i < total/6; i++ {
		m.Set(device.BitAddr(rng.Int63n(total)), true)
	}
	return m
}

// randomEventPair configures an event-driven device and a sweep-kernel twin
// with the same random (largely garbage) bitstream.
func randomEventPair(t testing.TB, g device.Geometry, rng *rand.Rand) (ev, sw *FPGA) {
	bs := bitstream.Full(randomMemory(g, rng))
	ev = New(g)
	sw = New(g)
	sw.SetEventDriven(false)
	if err := ev.FullConfigure(bs); err != nil {
		t.Fatal(err)
	}
	if err := sw.FullConfigure(bs); err != nil {
		t.Fatal(err)
	}
	return ev, sw
}

// TestEventRebuildOrderRekeysPending reconfigures CLB frames so the
// topological order changes while the event kernel holds pending work, then
// rebuilds the order before settling. The worklist is keyed by position, so
// the pending work must follow its LUTs to their new positions; the sweep
// twin has no worklist and re-derives everything.
func TestEventRebuildOrderRekeysPending(t *testing.T) {
	g := device.Tiny()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ev, sw := randomEventPair(t, g, rng)
		reordered := false
		for step := 0; step < 8; step++ {
			// Rewrite one CLB column from a fresh random memory.
			m := randomMemory(g, rng)
			col := rng.Intn(g.Cols)
			var frames []int
			for k := 0; k < device.FramesPerCLBCol; k++ {
				frames = append(frames, col*device.FramesPerCLBCol+k)
			}
			for _, f := range []*FPGA{ev, sw} {
				if err := f.PartialConfigure(bitstream.Partial(m, frames)); err != nil {
					t.Fatal(err)
				}
			}
			if !ev.work.pending() {
				t.Fatalf("seed %d step %d: reconfiguration left no pending work", seed, step)
			}
			before := append([]int32(nil), ev.order...)
			ev.RebuildOrder()
			sw.RebuildOrder()
			for i := range before {
				if before[i] != ev.order[i] {
					reordered = true
					break
				}
			}
			ev.Settle()
			sw.Settle()
			if !StateEqual(ev, sw) {
				t.Fatalf("seed %d step %d: event kernel diverged after re-keyed settle", seed, step)
			}
			for p := 0; p < g.Pins(); p++ {
				v := rng.Intn(2) == 1
				ev.SetPin(p, v)
				sw.SetPin(p, v)
			}
			ev.Step()
			sw.Step()
			if !StateEqual(ev, sw) {
				t.Fatalf("seed %d step %d: event kernel diverged after step", seed, step)
			}
		}
		if !reordered {
			t.Fatalf("seed %d: reconfiguration never changed the order", seed)
		}
	}
}

// TestCloneResumesFrozenBacklog clones a device frozen at the MaxSweeps
// bound with work still pending: the clone must carry the worklist, so
// clone and original resume the identical trajectory.
func TestCloneResumesFrozenBacklog(t *testing.T) {
	g := device.Tiny()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ev, sw := randomEventPair(t, g, rng)
		ev.MaxSweeps, sw.MaxSweeps = 2, 2
		ev.Step()
		sw.Step()
		if !eventBacklog(ev) {
			continue
		}
		c := ev.Clone()
		if !eventBacklog(c) {
			t.Fatal("clone lost the frozen backlog")
		}
		for step := 0; step < 20; step++ {
			for p := 0; p < g.Pins(); p++ {
				v := rng.Intn(2) == 1
				ev.SetPin(p, v)
				c.SetPin(p, v)
				sw.SetPin(p, v)
			}
			ev.Step()
			c.Step()
			sw.Step()
			if !StateEqual(ev, c) {
				t.Fatalf("seed %d step %d: clone diverged from its original", seed, step)
			}
			sameVisibleState(t, ev, sw, "frozen backlog resume")
		}
		return
	}
	t.Fatal("no seed froze an oscillation at MaxSweeps 2")
}

// eventBacklog reports whether f's event kernel holds unprocessed work: a
// pending worklist or stale long lines, left only by a Settle that froze an
// oscillation at the MaxSweeps bound.
func eventBacklog(f *FPGA) bool {
	return f.work.pending() || len(f.staleLL) > 0
}

// TestEventSettleAllocs is the allocation audit of the scalar event kernel:
// after warm-up, a stimulus change plus Step must not allocate — the
// worklist bitsets and stale list are reused across settles.
func TestEventSettleAllocs(t *testing.T) {
	g := device.Tiny()
	rng := rand.New(rand.NewSource(42))
	ev, _ := randomEventPair(t, g, rng)
	step := func() {
		for p := 0; p < g.Pins(); p++ {
			ev.SetPin(p, rng.Intn(2) == 1)
		}
		ev.Step()
	}
	for i := 0; i < 10; i++ {
		step() // warm scratch capacities
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("event settle allocated %.1f times per Step; want 0", allocs)
	}
}
