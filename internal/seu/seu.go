// Package seu implements the paper's SEU simulator: exhaustive (or
// uniformly sampled) single-bit corruption of the configuration bitstream
// through the configuration port, clock-by-clock golden-vs-DUT output
// comparison, repair by partial reconfiguration, and classification of
// sensitive bits into persistent and non-persistent (§III, Fig. 8).
package seu

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
)

// Options tune an injection campaign.
type Options struct {
	// ObserveCycles is how many clocks the corrupted design runs while the
	// comparator watches for discrepancies.
	ObserveCycles int
	// PersistWindow is how many clocks the repaired design gets to
	// re-synchronize before a sensitive bit is declared persistent.
	PersistWindow int
	// CleanRun is the number of consecutive matching clocks that counts as
	// re-synchronized.
	CleanRun int
	// Sample is the fraction of configuration bits to inject (1 =
	// exhaustive). Each bit's inclusion is decided by a hash of (Seed,
	// address) — uniform over the whole bitstream, so sensitivity
	// estimates stay unbiased, and independent of iteration order, so the
	// injected set is identical at any worker count.
	Sample float64
	// MaxBits caps the number of injections (0 = no cap): the first
	// MaxBits selected bits in ascending address order.
	MaxBits int64
	// Seed drives sampling and per-injection stimulus.
	Seed int64
	// Workers is the number of concurrent injection workers. One worker
	// runs on the campaign's board, several on cloned board replicas;
	// per-chunk results merge deterministically, so every value of Workers
	// produces the same Report. 0 means GOMAXPROCS.
	Workers int
	// ClassifyPersistence enables the paper's persistent/non-persistent
	// classification pass for every sensitive bit.
	ClassifyPersistence bool
	// Triage enables the campaign-scoped static cone-of-influence analysis:
	// configuration bits that provably cannot influence any observed output
	// are tallied as benign without touching the board. The analysis is
	// conservative — any bit whose flip could create a new long-line driver,
	// re-route a live mux, or reach an observed net stays potentially-
	// sensitive, and designs with history-coupled state (SRL16 shift
	// registers, writable BRAM, stuck-fault overlays) disable it wholesale —
	// so reports are byte-identical to triage-off runs; only WallTime and
	// the TriageSkipped tally differ.
	Triage bool
	// FastSim lets vector lanes take lock-step convergence credit: once a
	// repaired lane is provably state-identical to its golden lane
	// (board.VectorBoard.LockedWord), the remaining clean-run and
	// persistence cycles are credited as mismatch-free instead of simulated.
	// Exact — reports are byte-identical to FastSim-off runs; only WallTime
	// and the CyclesSimulated/CyclesSkipped diagnostics differ. The scalar
	// path (the sweep oracle, history-coupled designs, a carry's observe
	// phase) simulates every cycle whatever FastSim says.
	FastSim bool
	// Kernel selects the production path (KernelVector, the zero value) or
	// the reference oracle (KernelSweep). Both produce byte-identical
	// reports.
	Kernel Kernel
}

// Kernel selects which simulation path an injection campaign runs on.
type Kernel int

const (
	// KernelVector is the production path: eligible injections run through
	// the bit-parallel lane kernel — 64 fault universes per pass
	// (internal/fpga/vector.go), settling through the event-driven worklist
	// drain (fpga/vecevent.go), with retired lanes refilled mid-batch.
	// Bits no overlay expresses (LUT-mode flips, mapped BRAM port fields)
	// run their observe phase and repair on the scalar activity-driven
	// kernel, then ride a lane for the rest; history-coupled designs run
	// wholesale on the scalar kernel. Lane trajectories are exact images of
	// the scalar sweep kernel, so reports stay byte-identical.
	KernelVector Kernel = iota
	// KernelSweep is the reference oracle: every injection runs on the
	// scalar full-sweep kernel.
	KernelSweep
)

// ParseKernel maps the CLI spelling to a Kernel: "" or "vector" for the
// production path, "sweep" for the reference oracle.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "vector":
		return KernelVector, nil
	case "sweep":
		return KernelSweep, nil
	}
	return KernelVector, fmt.Errorf("seu: unknown kernel %q (vector|sweep)", s)
}

func (k Kernel) String() string {
	if k == KernelSweep {
		return "sweep"
	}
	return "vector"
}

// scalarEventDriven reports whether the scalar boards settle through the
// activity-driven kernel: the production path's scalar fallback does, the
// oracle runs full sweeps.
func (k Kernel) scalarEventDriven() bool { return k == KernelVector }

// DefaultOptions returns the standard campaign parameters.
func DefaultOptions() Options {
	return Options{
		ObserveCycles:       24,
		PersistWindow:       48,
		CleanRun:            8,
		Sample:              1.0,
		ClassifyPersistence: true,
		Triage:              true,
		FastSim:             true,
	}
}

// BitRecord describes one sensitive configuration bit.
type BitRecord struct {
	Addr       device.BitAddr
	Kind       device.BitKind
	Persistent bool
	// FirstErrorCycle is the comparator cycle (relative to injection) at
	// which the first output discrepancy appeared.
	FirstErrorCycle int
	// FailedOutputs are the output-bit indices that disagreed at the first
	// error (the raw material of the §III-A correlation table).
	FailedOutputs []int
}

// Report is the result of a campaign — the raw material of the paper's
// Tables I and II.
type Report struct {
	Design     string
	Geom       device.Geometry
	SlicesUsed int

	Injections int64
	Failures   int64
	Persistent int64

	InjectionsByKind KindCounts
	FailuresByKind   KindCounts

	SensitiveBits []BitRecord

	// TriageSkipped counts the injections the static cone-of-influence
	// triage tallied as benign without board activity — a subset of
	// Injections. A triage-off run of the same campaign reports 0 here and
	// identical values everywhere else (except WallTime).
	TriageSkipped int64

	// CyclesSimulated counts board clocks actually stepped; CyclesSkipped
	// counts clocks the vector lanes credited by lock-step convergence
	// without simulation. Diagnostics only — like WallTime they vary with
	// FastSim and lane batching while every report-visible result stays
	// identical.
	CyclesSimulated int64
	CyclesSkipped   int64

	// SimulatedTime is the virtual test time on the modelled SLAAC-1V
	// (InjectLoopTime per injection), the figure behind the paper's
	// "entire bitstream ... in 20 minutes".
	SimulatedTime time.Duration
	// WallTime is how long the Go simulation actually took.
	WallTime time.Duration
}

// Sensitivity returns failures per injected bit — with exhaustive
// injection, exactly the paper's "design failures / configuration upsets".
func (r *Report) Sensitivity() float64 {
	if r.Injections == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Injections)
}

// NormalizedSensitivity factors out area: sensitivity divided by slice
// utilization (Table I's right-hand column).
func (r *Report) NormalizedSensitivity() float64 {
	util := float64(r.SlicesUsed) / float64(r.Geom.Slices())
	if util == 0 {
		return 0
	}
	return r.Sensitivity() / util
}

// PersistenceRatio returns persistent bits per sensitive bit (Table II).
func (r *Report) PersistenceRatio() float64 {
	if r.Failures == 0 {
		return 0
	}
	return float64(r.Persistent) / float64(r.Failures)
}

func (r *Report) String() string {
	return fmt.Sprintf("%s: %d slices (%.1f%%), %d injections, %d failures, sensitivity %.2f%%, normalized %.1f%%, persistence %.1f%%",
		r.Design, r.SlicesUsed, 100*float64(r.SlicesUsed)/float64(r.Geom.Slices()),
		r.Injections, r.Failures, 100*r.Sensitivity(), 100*r.NormalizedSensitivity(), 100*r.PersistenceRatio())
}

// Run executes an injection campaign on the testbed. The board must be
// freshly configured (golden and DUT in lock-step).
//
// With Workers > 1 the bit-address space is sharded over cloned board
// replicas. Every injection starts from canonical board state with a
// stimulus stream seeded from (Seed, address), so the Report — injected
// set, counters, per-kind maps, and SensitiveBits order — is identical at
// any worker count; only WallTime varies.
func Run(bd *board.SLAAC1V, opts Options) (*Report, error) {
	return RunContext(context.Background(), bd, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled the campaign
// stops between injections and returns ctx's error. It is the chunk API run
// to completion in process: NewChunkRunner on bd, cutChunks, RunChunks,
// AssembleReport. With a pre-plan the chunks carry equal shares of its
// board work, so a sweep whose design fills one corner of a large device
// still keeps every worker busy; without one they are equal address spans.
// At one worker bd runs the injections and is left in lock-step on its
// golden configuration; at more, Workers replicas run them and bd is left
// untouched. A cancelled campaign returns no partial report; resumable
// execution is the campaign service's use of the same chunk API.
func RunContext(ctx context.Context, bd *board.SLAAC1V, opts Options) (*Report, error) {
	start := time.Now()
	base, err := NewChunkRunner(bd, opts)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := base.expected
	if base.plan != nil {
		work = base.plan.work // padding and retired bits need no board
	}
	if maxw := int(work/minInjectionsPerWorker) + 1; workers > maxw {
		workers = maxw // not enough work to amortize board clones
	}
	chunks := 1
	if workers > 1 {
		chunks = workers * chunksPerWorker
		// Callers keep simulating bd after the campaign (beam validation,
		// the Fig. 7 trace). Among several workers, which chunk bd would
		// run last depends on scheduling, so it sits the campaign out and
		// stays exactly as it was.
		base = base.Clone(opts.Seed)
	}
	specs := cutChunks(base.limit, chunks, base.plan)
	results := make([]*ChunkResult, len(specs))
	err = RunChunks(ctx, base, specs, workers, nil, nil, func(cs ChunkSpec, cr *ChunkResult) error {
		results[cs.Index] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := AssembleReport(bd, results)
	rep.WallTime = time.Since(start)
	return rep, nil
}

// observeOutcome is the result of an injection's corrupt/observe/repair
// prefix: the comparator verdict of the observation window plus the number
// of board clocks it consumed.
type observeOutcome struct {
	failed        bool
	firstErr      int
	failedOutputs []int
	steps         int64
}

// observeAndRepair runs the front half of one injection iteration: reset to
// canonical state, corrupt, observe under clock, repair by frame write-back
// plus column scrub. It is shared between the scalar injectOne and the
// carry path, which hands the repaired board's state to a vector lane for
// the remaining windows.
func observeAndRepair(bd *board.SLAAC1V, golden *bitstream.Memory, a device.BitAddr, seed int64, opts Options, fs *frameScrub) (observeOutcome, error) {
	g := bd.Geometry()
	// Canonical pre-injection state: stimulus seeded by (Seed, address),
	// pins low, user state reset. Each injection's outcome then depends
	// only on the bitstream and the injected bit, never on which board
	// replica or predecessor injection preceded it.
	bd.ResetCampaignState(seed)
	startCycle := bd.Cycle()
	var ob observeOutcome

	// Corrupt: flip the bit in the DUT's configuration (modelled as the
	// single-bit partial reconfiguration the testbed performs in 100 us —
	// accounted by the campaign's per-iteration loop time).
	bd.DUT.InjectBit(a)

	// Observe while the clock runs.
	for i := 0; i < opts.ObserveCycles; i++ {
		if !bd.Step() {
			ob.failed = true
			ob.firstErr = int(bd.Cycle() - startCycle)
			// MismatchBits returns a reused scratch slice; copy to retain.
			ob.failedOutputs = append([]int(nil), bd.MismatchBits()...)
			break
		}
	}
	ob.steps = bd.Cycle() - startCycle

	// Repair: write the golden frame back through the configuration port.
	// Corruption can spread beyond the injected frame — flipping a LUT-mode
	// bit turns the LUT into a live shift register whose truth-table
	// configuration bits change every clock (the paper's §II-C dynamic-
	// content pathology) — so scrub every frame that differs from golden.
	frame := a.Frame(g)
	if err := bd.Port.WriteFrame(golden.Frame(frame)); err != nil {
		return ob, fmt.Errorf("seu: repairing frame %d: %w", frame, err)
	}
	cm := bd.DUT.ConfigMemory()
	fs.markClean(cm, frame)
	// The spread is confined to the injected bit's column: an SRL shifts
	// only its own truth-table frames, and a corrupted BRAM port (a flipped
	// write enable, say) writes only its own block's content frames.
	// Residual divergence anywhere else would show in the clean-run check
	// (and, on the scalar path, trip injectOne's full-reconfiguration
	// fallback). Frames whose generation counter hasn't moved since they
	// were last verified golden are provably untouched and skip even the
	// compare.
	colBase, colFrames := 0, 0 // extra frames configure nothing
	switch bf := frame - g.CLBFrames(); {
	case bf < 0:
		colBase, colFrames = frame/device.FramesPerCLBCol*device.FramesPerCLBCol, device.FramesPerCLBCol
	case bf < g.BRAMFrames():
		colBase, colFrames = g.CLBFrames()+bf/device.BRAMFramesPerCol*device.BRAMFramesPerCol, device.BRAMFramesPerCol
	}
	for fidx := colBase; fidx < colBase+colFrames; fidx++ {
		if fs.isClean(cm, fidx) {
			continue
		}
		if !cm.FrameEqual(golden, fidx) {
			if err := bd.Port.WriteFrame(golden.Frame(fidx)); err != nil {
				return ob, fmt.Errorf("seu: scrubbing frame %d: %w", fidx, err)
			}
		}
		fs.markClean(cm, fidx)
	}
	return ob, nil
}

// injectOne performs one corrupt/observe/repair/classify iteration. fs is
// the board replica's dirty-frame tracker: it persists across injections so
// the repair scrub only re-verifies frames actually touched since their
// last golden verification. Its only caller is the scalar loop runRange,
// which serves the sweep oracle and designs with history-coupled state; the
// vector path runs demoted bits as carries (enqueueCarry).
func injectOne(bd *board.SLAAC1V, golden *bitstream.Memory, a device.BitAddr, kind device.BitKind, opts Options, cr *ChunkResult, fs *frameScrub) error {
	ob, err := observeAndRepair(bd, golden, a, stimulusSeed(opts.Seed, a), opts, fs)
	startCycle := bd.Cycle() - ob.steps
	defer func() { cr.CyclesSimulated += bd.Cycle() - startCycle }()
	if err != nil {
		return err
	}
	failed, firstErr, failedOutputs := ob.failed, ob.firstErr, ob.failedOutputs
	if !failed {
		// No output error during the window. Make sure no silent state
		// divergence contaminates later injections: a short clean run must
		// follow; otherwise this bit was sensitive after all.
		clean := 0
		for clean < opts.CleanRun {
			if bd.Step() {
				clean++
			} else {
				failed = true
				firstErr = int(bd.Cycle() - startCycle)
				failedOutputs = append([]int(nil), bd.MismatchBits()...)
				break
			}
		}
		if !failed {
			return nil
		}
	}

	cr.Failures++
	cr.FailuresByKind[kind]++

	persistent := false
	if opts.ClassifyPersistence {
		// The configuration is already repaired; if the design re-syncs on
		// its own the bit is non-persistent, otherwise state corruption
		// survives scrubbing and only a reset clears it (§III-A, Table II).
		// The verdict is tail-anchored — the design must END the window in
		// lock-step — so a lucky mid-window streak of matches (common for
		// narrow outputs) is not mistaken for recovery.
		clean := 0
		for i := 0; i < opts.PersistWindow; i++ {
			if bd.Step() {
				clean++
			} else {
				clean = 0
			}
		}
		persistent = clean < opts.CleanRun
		if persistent {
			cr.Persistent++
		}
	}
	cr.Bits = append(cr.Bits, BitRecord{
		Addr: a, Kind: kind, Persistent: persistent,
		FirstErrorCycle: firstErr, FailedOutputs: failedOutputs,
	})

	// Reset both designs to re-synchronize (Fig. 8's "reset designs").
	bd.ResetBoth()
	if !bd.Match() {
		// Reset was not enough (e.g. live memory content diverged while the
		// routing was corrupted). Fall back to a full reconfiguration of
		// the DUT, as the flight procedure would.
		if err := bd.Port.FullConfigure(bitstream.Full(golden)); err != nil {
			return fmt.Errorf("seu: full reconfiguration after bit %d: %w", a, err)
		}
		bd.ResetBoth()
		if !bd.Match() {
			return fmt.Errorf("seu: designs failed to re-synchronize after full reconfiguration at bit %d", a)
		}
	}
	return nil
}
