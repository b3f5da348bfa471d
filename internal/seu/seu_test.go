package seu

import (
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/synth"
)

// boardFor places a circuit on Tiny and builds a testbed.
func boardFor(t *testing.T, c *netlist.Circuit, g device.Geometry) *board.SLAAC1V {
	t.Helper()
	p, err := place.Place(c, g)
	if err != nil {
		t.Fatalf("place %s: %v", c.Name, err)
	}
	bd, err := board.New(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

func TestBoardLockStep(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Small())
	if mism, first := bd.StepN(200); mism != 0 {
		t.Fatalf("uncorrupted board mismatched %d times (first at %d)", mism, first)
	}
	if bd.Cycle() != 200 {
		t.Errorf("cycle = %d", bd.Cycle())
	}
	if bd.OutputWidth() == 0 {
		t.Error("no compared outputs")
	}
}

func TestBoardDetectsInjectedUpset(t *testing.T) {
	spec, _ := designs.ByName("MULT 12")
	p, err := place.Place(spec.Build(), device.Small())
	if err != nil {
		t.Fatal(err)
	}
	bd, err := board.New(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a truth-table bit of a used site: find a registered site's
	// LUT and flip one of its truth bits.
	// Buffer LUTs tie their unused inputs to the routed input, so only
	// truth indices 0 and 15 are ever addressed; bit 0 is always sensitive.
	s := p.Sites[0]
	g := p.Geom
	bd.DUT.InjectBit(g.LUTBitAddr(s.R, s.C, s.O, 0))
	if !bd.RunUntilMismatch(200) {
		t.Fatal("comparator missed a corrupted used LUT")
	}
}

func feedforwardReport(t *testing.T) *Report {
	t.Helper()
	// A compact feed-forward design: registered XOR/AND datapath.
	b := netlist.NewBuilder("ff-datapath")
	in := b.Input("A", 6)
	regs := synth.Register(b, []netlist.SignalID{
		b.Xor(in[0], in[1]), b.And(in[2], in[3]), b.Xor(in[4], in[5]),
		b.Or(in[0], in[5]), b.Xor3(in[1], in[2], in[3]), b.Maj3(in[3], in[4], in[5]),
	})
	b.Output("O", regs)
	bd := boardFor(t, b.MustBuild(), device.Tiny())
	opts := DefaultOptions()
	opts.Sample = 0.12
	opts.Seed = 3
	rep, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCampaignFeedForwardHasNoPersistentBits(t *testing.T) {
	rep := feedforwardReport(t)
	if rep.Injections == 0 || rep.Failures == 0 {
		t.Fatalf("campaign found nothing: %+v", rep)
	}
	if rep.Sensitivity() <= 0 || rep.Sensitivity() > 0.5 {
		t.Errorf("sensitivity = %f out of plausible range", rep.Sensitivity())
	}
	// Pure feed-forward pipeline: transient errors flush; the paper
	// measured 0%% persistence for its multiply-add design.
	if ratio := rep.PersistenceRatio(); ratio > 0.05 {
		t.Errorf("feed-forward persistence ratio = %.3f, want ~0", ratio)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestCampaignLFSRIsHighlyPersistent(t *testing.T) {
	c := designs.LFSRCluster("lfsr-test", 2, 2, 8)
	bd := boardFor(t, c, device.Tiny())
	opts := DefaultOptions()
	opts.Sample = 0.12
	opts.Seed = 4
	rep, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("LFSR campaign found no sensitive bits")
	}
	// The paper measured 93.9% persistence for its big LFSR; the shape
	// requirement is "most sensitive bits are persistent".
	if ratio := rep.PersistenceRatio(); ratio < 0.5 {
		t.Errorf("LFSR persistence ratio = %.3f, want > 0.5", ratio)
	}
}

func TestCampaignBookkeeping(t *testing.T) {
	rep := feedforwardReport(t)
	var kindSum int64
	for _, n := range rep.InjectionsByKind {
		kindSum += n
	}
	if kindSum != rep.Injections {
		t.Errorf("per-kind injections %d != total %d", kindSum, rep.Injections)
	}
	if rep.FailuresByKind[device.KindPad] != 0 {
		t.Error("padding bits reported as sensitive")
	}
	if int64(len(rep.SensitiveBits)) != rep.Failures {
		t.Errorf("collected %d bits, failures %d", len(rep.SensitiveBits), rep.Failures)
	}
	for _, bit := range rep.SensitiveBits {
		if bit.FirstErrorCycle < 0 {
			t.Errorf("sensitive bit %d has no first-error cycle", bit.Addr)
		}
	}
	if rep.SimulatedTime <= 0 || rep.WallTime <= 0 {
		t.Error("timing not accounted")
	}
}

func TestCampaignLeavesBoardClean(t *testing.T) {
	spec, _ := designs.ByName("MULT 12")
	p, err := place.Place(spec.Build(), device.Small())
	if err != nil {
		t.Fatal(err)
	}
	// At one worker the caller's board runs the injections; at four it sits
	// the campaign out, so a caller that keeps simulating it (beam
	// validation, the Fig. 7 trace) sees no scheduling-dependent state.
	// Either way it must end clean and in lock-step.
	for _, workers := range []int{1, 4} {
		bd, err := board.New(p, 9)
		if err != nil {
			t.Fatal(err)
		}
		golden := bd.DUT.ConfigMemory().Clone()
		opts := DefaultOptions()
		opts.Sample = 0.01
		opts.Seed = 5
		opts.Workers = workers
		cycle := bd.Cycle()
		if _, err := Run(bd, opts); err != nil {
			t.Fatal(err)
		}
		if workers > 1 && bd.Cycle() != cycle {
			t.Fatalf("workers=%d: campaign stepped the caller's board", workers)
		}
		if !bd.DUT.ConfigMemory().Equal(golden) {
			t.Fatalf("workers=%d: campaign left corruption in the DUT configuration", workers)
		}
		if mism, _ := bd.StepN(50); mism != 0 {
			t.Fatalf("workers=%d: board not in lock-step after campaign", workers)
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	spec, _ := designs.ByName("MULT 12")
	bd := boardFor(t, spec.Build(), device.Small())
	if _, err := Run(bd, Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestTracePersistentCounterBit(t *testing.T) {
	// A small free-running counter: upsetting a state-feedback bit yields
	// the paper's Fig. 7 behaviour — after repair, the count never
	// re-converges until reset.
	b := netlist.NewBuilder("counter")
	b.Output("O", synth.Counter(b, 6))
	c := b.MustBuild()
	bd := boardFor(t, c, device.Tiny())

	// Find a persistent bit with a short campaign.
	opts := DefaultOptions()
	opts.Sample = 0.15
	opts.Seed = 6
	rep, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	var target device.BitAddr = -1
	for _, bit := range rep.SensitiveBits {
		if bit.Persistent {
			target = bit.Addr
			break
		}
	}
	if target < 0 {
		t.Fatal("no persistent bit found in a counter")
	}
	bd.ResetBoth()
	trace, err := Trace(bd, target, 10, 12, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 52 {
		t.Fatalf("trace length %d", len(trace))
	}
	for _, pt := range trace[:10] {
		if !pt.Match {
			t.Fatal("mismatch before injection")
		}
	}
	// After the corrupt window plus repair, a persistent bit keeps the
	// outputs diverged for the remainder of the trace.
	tail := trace[len(trace)-10:]
	diverged := 0
	for _, pt := range tail {
		if !pt.Match {
			diverged++
		}
	}
	if diverged < 8 {
		t.Errorf("persistent-bit trace re-converged (%d/10 diverged in tail)", diverged)
	}
}

func TestCorrelationTableAndSensitiveNodes(t *testing.T) {
	spec, _ := designs.ByName("MULT 12")
	p, err := place.Place(spec.Build(), device.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	bd, err := board.New(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sample = 0.2
	opts.Seed = 21
	opts.ClassifyPersistence = false
	rep, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("no sensitive bits to correlate")
	}
	table := Correlate(rep)
	if len(table.Entries) != len(rep.SensitiveBits) {
		t.Fatalf("table entries %d != sensitive bits %d", len(table.Entries), len(rep.SensitiveBits))
	}
	// Every sensitive bit recorded at least one failed output.
	for _, e := range table.Entries {
		if len(e.Outputs) == 0 {
			t.Fatalf("bit %d has no correlated outputs", e.Addr)
		}
		for _, o := range e.Outputs {
			if o < 0 || o >= bd.OutputWidth() {
				t.Fatalf("correlated output %d out of range", o)
			}
		}
	}
	hot := table.HotOutputs()
	if len(hot) == 0 {
		t.Fatal("no hot outputs")
	}
	for i := 1; i < len(hot); i++ {
		if table.ByOutput[hot[i]] > table.ByOutput[hot[i-1]] {
			t.Fatal("HotOutputs not sorted by exposure")
		}
	}
	if table.String() == "" {
		t.Error("empty table string")
	}

	// The sensitive cross-section maps back to netlist nodes.
	nodes := SensitiveNodes(p, rep)
	if len(nodes) == 0 {
		t.Fatal("no sensitive nodes identified")
	}
	for n := range nodes {
		if n < 0 || n >= len(p.Circuit.Nodes) {
			t.Fatalf("sensitive node %d out of range", n)
		}
	}
	// The cross-section is a proper subset of the design for a sampled run.
	if len(nodes) > len(p.Circuit.Nodes) {
		t.Fatalf("more sensitive nodes than nodes: %d > %d", len(nodes), len(p.Circuit.Nodes))
	}
}
