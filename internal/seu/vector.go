package seu

import (
	"context"
	"math/bits"
	"runtime/pprof"
	"sort"
	"sync/atomic"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
	"repro/internal/fpga"
)

// Vector-kernel batch scheduler. Pre-planned injections that the planner
// expressed as lane overlays queue up and run through one vectored clock
// program; each lane's phase machine reproduces the scalar injectOne
// outcome (failure verdict, first-error cycle, failed outputs, persistence)
// exactly, retiring individually on lock-step convergence. The scheduler
// refills retired lanes from the queue mid-batch, keeping lane occupancy
// high on triage-heavy campaigns. The per-bit classification work —
// Classify, PlanVectorDelta, stimulus-seed derivation — happened once, in
// the campaign pre-plan (preplan.go); the runner just consumes planEntry
// records.
//
// BRAM content flips are overlays like any other: a lane's read XORs the
// flipped bit into the word it addresses. Every bit the planner demotes
// (LUT-mode flips, which make a live SRL16; mapped BRAM port fields) is a
// carry: it runs its corrupt/observe/repair prefix on the scalar board,
// then rides a lane for the clean-run and persistence windows. The
// configuration is provably golden after repair plus column scrub, so the
// lane only needs to carry the behavioural state (ScatterLane) and
// fast-forward its stimulus stream past the scalar prefix (SkipLane).
//
// Lanes are mutually independent — every lane word operation is bitwise,
// and overlays are per-lane — so batch composition (which varies with chunk
// boundaries, refill timing, and worker count) cannot influence any lane's
// outcome. Outcome accounting is folded in ascending bit-address order
// regardless of retirement order (emitBatch), keeping reports
// byte-identical to the scalar kernel at any worker count.

// Scheduler tuning. The queue depth amortizes generation restarts and
// keeps the refill pump primed; the refill threshold batches lane restores
// so the masked canonical copy (O(state words) per call) amortizes over
// ≥16 lanes. Carried entries park two full behavioural snapshots each, so
// they flush at a much lower depth.
const (
	vectorQueueDepth = 4096
	maxQueuedCarries = 64
	refillThreshold  = 16
)

// Vector-kernel activity counters, exported through VectorKernelStats onto
// campaignd's /metrics plane.
var (
	vectorSweepsSettled     atomic.Int64 // worklist rounds drained (== productive sweeps)
	vectorWorklistDrains    atomic.Int64 // Settle calls that found pending work
	vectorLanesRefilled     atomic.Int64 // retired lanes refilled mid-batch
	vectorFastForwardCycles atomic.Int64 // convergence-credited cycles (all lanes)
)

// VectorKernelStats reports cumulative vector-kernel activity across all
// campaigns of this process: worklist rounds settled, Settle drains that
// found work, lanes refilled mid-batch, and clock cycles credited by
// lock-step convergence instead of simulated.
func VectorKernelStats() (sweepsSettled, worklistDrains, lanesRefilled, fastForwardCycles int64) {
	return vectorSweepsSettled.Load(), vectorWorklistDrains.Load(),
		vectorLanesRefilled.Load(), vectorFastForwardCycles.Load()
}

// Lane phases, mirroring the scalar injectOne control flow.
const (
	lanePhaseObserve = iota
	lanePhaseClean
	lanePhasePersist
	lanePhaseDone
)

// laneRun is one in-flight injection's phase machine.
type laneRun struct {
	addr  device.BitAddr
	kind  device.BitKind
	delta fpga.VectorDelta

	phase        uint8
	stepsInPhase int
	clean        int
	// preCycles is the number of board clocks the scalar observe prefix of
	// a carried injection consumed before the lane took over (0 for overlay
	// lanes); first-error cycles are reported relative to injection start,
	// so lane-relative cycles offset by it.
	preCycles int

	failed        bool
	firstErr      int
	failedOutputs []int
	persistent    bool

	cycles  int64
	skipped int64
}

// pendingLane is one enqueued injection awaiting a lane.
type pendingLane struct {
	addr  device.BitAddr
	kind  device.BitKind
	delta fpga.VectorDelta
	seed  int64

	// Carry fields: the scalar observe/repair prefix already ran. g/d hold
	// the scalar pair's behavioural state at enqueue time (pooled on the
	// runner, returned when the entry boards a lane).
	carry         bool
	failed        bool
	firstErr      int
	failedOutputs []int
	preCycles     int
	g, d          *fpga.VectorSnapshot
}

// vectorRunner schedules vector-eligible injections onto lanes for one
// worker. Entries queue in plan (= ascending address) order; runQueue pops
// them FIFO, so lane assignment is deterministic per flush regardless of
// retirement order.
type vectorRunner struct {
	vb *board.VectorBoard

	queue   []pendingLane
	qHead   int
	carries int // queued carry entries (snapshot-heavy, capped separately)

	lanes    [64]laneRun
	liveMask uint64
	// lockMask holds the lanes past their repair (clean-run or persistence
	// phase) — the only lanes the lock-step early exit can retire, so the
	// only ones the divergence scan must examine. Bits of retired lanes may
	// linger; readers intersect it with liveMask.
	lockMask uint64
	done     []laneRun // retired, awaiting emit
	seeds    [64]int64
	snapFree []*fpga.VectorSnapshot
}

// maybeNewVectorRunner builds the worker's batch scheduler from the
// campaign pre-plan. A nil plan (the oracle kernel, a history-coupled or
// unprogrammed design) means the worker runs everything on the scalar
// path. The lane machines share the plan's compiled design read-only.
func maybeNewVectorRunner(bd *board.SLAAC1V, plan *prePlan) *vectorRunner {
	if plan == nil {
		return nil
	}
	return &vectorRunner{vb: board.NewVectorBoardFrom(bd, plan.comp)}
}

// enqueueVector adds one overlay-expressible injection; the caller flushes
// when shouldFlush reports the queue full.
func (vr *vectorRunner) enqueueVector(e *planEntry) {
	vr.queue = append(vr.queue, pendingLane{addr: e.addr, kind: e.kind, delta: e.delta, seed: e.seed})
}

// enqueueCarry runs the scalar corrupt/observe/repair prefix of a demoted
// injection on bd, then either retires it inline (it failed and no
// persistence window follows) or parks its post-repair state in a lane slot
// to ride the next batch's clean-run/persistence windows.
//
// Handing the rest to a lane is exact for every demoted bit:
//
//   - observeAndRepair rewrites every differing frame of the injected bit's
//     column. For a LUT-mode flip that covers the transient SRL's
//     truth-table frames; for a BRAM port field it restores the port fields
//     and every content word a flipped write enable stored.
//   - Lanes only run designs with no writable BRAM, so once the content
//     frames are golden no block holds a word the golden design lacks.
//   - What is left is behavioural state (nets, LUTs, FFs, BRAM output
//     registers), which CaptureVectorSnapshotInto and ScatterLane carry.
//
// Skipping the scalar path's ResetBoth/re-sync fallback is exact for the
// same reason: with the configuration golden, a reset pair always
// re-matches and the full-reconfiguration fallback can never fire — and
// the next injection's ResetCampaignState clears the user state anyway.
func (vr *vectorRunner) enqueueCarry(bd *board.SLAAC1V, golden *bitstream.Memory, e *planEntry, opts Options, cr *ChunkResult, fs *frameScrub) error {
	ob, err := observeAndRepair(bd, golden, e.addr, e.seed, opts, fs)
	cr.CyclesSimulated += ob.steps
	if err != nil {
		return err
	}
	if ob.failed && !(opts.ClassifyPersistence && opts.PersistWindow > 0) {
		// Failed with no window to carry: retire inline, mirroring
		// injectOne's post-failure flow for a zero-length window.
		cr.Failures++
		cr.FailuresByKind[e.kind]++
		persistent := false
		if opts.ClassifyPersistence {
			persistent = 0 < opts.CleanRun
			if persistent {
				cr.Persistent++
			}
		}
		cr.Bits = append(cr.Bits, BitRecord{
			Addr: e.addr, Kind: e.kind, Persistent: persistent,
			FirstErrorCycle: ob.firstErr, FailedOutputs: ob.failedOutputs,
		})
		return nil
	}
	var g, d *fpga.VectorSnapshot
	if n := len(vr.snapFree); n >= 2 {
		g, d = vr.snapFree[n-1], vr.snapFree[n-2]
		vr.snapFree = vr.snapFree[:n-2]
	} else {
		g, d = new(fpga.VectorSnapshot), new(fpga.VectorSnapshot)
	}
	bd.Golden.CaptureVectorSnapshotInto(g)
	bd.DUT.CaptureVectorSnapshotInto(d)
	vr.queue = append(vr.queue, pendingLane{
		addr: e.addr, kind: e.kind, seed: e.seed,
		carry: true, failed: ob.failed, firstErr: ob.firstErr,
		failedOutputs: ob.failedOutputs, preCycles: int(ob.steps),
		g: g, d: d,
	})
	vr.carries++
	return nil
}

// pending reports the entries queued and not yet on a lane.
func (vr *vectorRunner) pending() int { return len(vr.queue) - vr.qHead }

// shouldFlush reports whether the queue reached its flush depth — or the
// carry cap, which bounds how many parked behavioural snapshots a deep
// queue can hold.
func (vr *vectorRunner) shouldFlush() bool {
	return vr.pending() >= vectorQueueDepth || vr.carries >= maxQueuedCarries
}

// pop hands out the next queued entry in enqueue (= ascending address)
// order.
func (vr *vectorRunner) pop() *pendingLane {
	p := &vr.queue[vr.qHead]
	vr.qHead++
	return p
}

// flush runs every queued entry to retirement and folds the outcomes into
// cr. opts.FastSim gates the per-lane lock-step early exit (CyclesSkipped
// stays 0 when it is off). Lanes run only designs that are not
// history-coupled, so no live state outlasts a campaign reset.
func (vr *vectorRunner) flush(opts Options, cr *ChunkResult) {
	if vr.pending() == 0 {
		return
	}
	pprof.Do(context.Background(), labelsSimulate, func(context.Context) {
		vr.runQueue(opts)
	})
	rounds, drains := vr.vb.TakeKernelStats()
	vectorSweepsSettled.Add(rounds)
	vectorWorklistDrains.Add(drains)
	pprof.Do(context.Background(), labelsEmit, func(context.Context) {
		emitBatch(vr.done, cr)
	})
	var skipped int64
	for i := range vr.done {
		skipped += vr.done[i].skipped
	}
	vectorFastForwardCycles.Add(skipped)
	vr.done = vr.done[:0]
	vr.queue = vr.queue[:0]
	vr.qHead = 0
	vr.carries = 0
}

// install boards the next queued entry on lane i (whose state is already at
// the canonical snapshot via StartBatch or RefillLanes) and adds the lane
// to lockMask if it enters a post-repair phase.
func (vr *vectorRunner) install(i int) {
	p := vr.pop()
	vr.lanes[i] = laneRun{addr: p.addr, kind: p.kind, delta: p.delta, firstErr: -1, preCycles: p.preCycles}
	vr.liveMask |= 1 << uint(i)
	vr.lockMask &^= 1 << uint(i)
	if !p.carry {
		vr.vb.DUT.ApplyDelta(i, p.delta)
		return
	}
	// Carried lane: resume the scalar trajectory mid-run. Both lane
	// machines take the scalar pair's behavioural state; the stimulus
	// stream skips what the scalar prefix already drew.
	ln := &vr.lanes[i]
	vr.vb.Golden.ScatterLane(i, p.g)
	vr.vb.DUT.ScatterLane(i, p.d)
	vr.vb.SkipLane(i, p.preCycles)
	vr.snapFree = append(vr.snapFree, p.g, p.d)
	p.g, p.d = nil, nil
	vr.carries--
	ln.failed = p.failed
	ln.firstErr = p.firstErr
	ln.failedOutputs = p.failedOutputs
	if p.failed {
		ln.phase = lanePhasePersist
	} else {
		ln.phase = lanePhaseClean
	}
	vr.lockMask |= 1 << uint(i)
}

// retire takes lane i off the board: its stimulus and state freeze (never
// read again) and its outcome joins the emit list.
func (vr *vectorRunner) retire(i int) {
	vr.vb.FreezeLane(i)
	vr.liveMask &^= 1 << uint(i)
	vr.done = append(vr.done, vr.lanes[i])
}

// startGeneration seeds a fresh batch of up to 64 queued entries.
func (vr *vectorRunner) startGeneration() {
	n := vr.pending()
	if n > 64 {
		n = 64
	}
	base := vr.qHead
	for i := 0; i < n; i++ {
		vr.seeds[i] = vr.queue[base+i].seed
	}
	vr.vb.StartBatch(vr.seeds[:n])
	vr.liveMask = 0
	vr.lockMask = 0
	for i := 0; i < n; i++ {
		vr.install(i)
	}
}

// doRefill restores retired lanes to the canonical state and boards the
// next queued entries on them — the mid-batch occupancy pump. Lanes fill in
// ascending index order, pairing with RefillLanes' ascending-mask seeding.
func (vr *vectorRunner) doRefill() {
	n := vr.pending()
	idle := ^vr.liveMask
	if k := bits.OnesCount64(idle); n > k {
		n = k
	}
	var mask uint64
	base := vr.qHead
	rest := idle
	for j := 0; j < n; j++ {
		lane := bits.TrailingZeros64(rest)
		rest &= rest - 1
		mask |= 1 << uint(lane)
		vr.seeds[j] = vr.queue[base+j].seed
	}
	vr.vb.RefillLanes(mask, vr.seeds[:n])
	vectorLanesRefilled.Add(int64(n))
	for rest, j := mask, 0; rest != 0; rest, j = rest&(rest-1), j+1 {
		vr.install(bits.TrailingZeros64(rest))
	}
}

// runQueue drives every queued entry to retirement: generations of up to 64
// lanes, with retired lanes refilled from the queue mid-generation (refill
// amortizes its masked canonical copy over refillThreshold lanes).
func (vr *vectorRunner) runQueue(opts Options) {
	// The lock-step check covers only the live lanes past their repair, the
	// only phases in which lock is possible. Overlay lanes start in
	// observation (overlay active, lock impossible); carried lanes enter
	// directly in a post-repair phase.
	for vr.pending() > 0 || vr.liveMask != 0 {
		if vr.liveMask == 0 {
			vr.startGeneration()
		} else if vr.pending() > 0 && bits.OnesCount64(^vr.liveMask) >= refillThreshold {
			vr.doRefill()
		}
		if lock := vr.lockMask & vr.liveMask; opts.FastSim && lock != 0 {
			for rest := vr.vb.LockedWord(lock); rest != 0; rest &= rest - 1 {
				i := bits.TrailingZeros64(rest)
				ln := &vr.lanes[i]
				switch ln.phase {
				case lanePhaseClean:
					// Provably in lock-step forever: the remaining clean
					// cycles are guaranteed matches.
					ln.skipped += int64(opts.CleanRun - ln.clean)
					ln.phase = lanePhaseDone
					vr.retire(i)
				case lanePhasePersist:
					remaining := opts.PersistWindow - ln.stepsInPhase
					ln.skipped += int64(remaining)
					ln.clean += remaining
					ln.persistent = ln.clean < opts.CleanRun
					ln.phase = lanePhaseDone
					vr.retire(i)
				}
			}
			if vr.liveMask == 0 {
				continue
			}
		}
		mm := vr.vb.Step()
		vr.lockMask = 0
		for rest := vr.liveMask; rest != 0; rest &= rest - 1 {
			i := bits.TrailingZeros64(rest)
			ln := &vr.lanes[i]
			ln.cycles++
			miss := mm>>uint(i)&1 == 1
			switch ln.phase {
			case lanePhaseObserve:
				if miss {
					ln.failed = true
					ln.firstErr = ln.preCycles + int(ln.cycles)
					ln.failedOutputs = vr.vb.FailedOutputs(i)
					vr.vb.DUT.RemoveDelta(i, ln.delta) // repair
					vr.finishFailed(ln, opts)
				} else if ln.stepsInPhase++; ln.stepsInPhase == opts.ObserveCycles {
					vr.vb.DUT.RemoveDelta(i, ln.delta) // repair
					ln.phase = lanePhaseClean
					ln.clean = 0
				}
			case lanePhaseClean:
				if miss {
					ln.failed = true
					ln.firstErr = ln.preCycles + int(ln.cycles)
					ln.failedOutputs = vr.vb.FailedOutputs(i)
					vr.finishFailed(ln, opts)
				} else if ln.clean++; ln.clean == opts.CleanRun {
					ln.phase = lanePhaseDone
				}
			case lanePhasePersist:
				if miss {
					ln.clean = 0
				} else {
					ln.clean++
				}
				if ln.stepsInPhase++; ln.stepsInPhase == opts.PersistWindow {
					ln.persistent = ln.clean < opts.CleanRun
					ln.phase = lanePhaseDone
				}
			}
			if ln.phase == lanePhaseDone {
				vr.retire(i)
			} else if ln.phase == lanePhaseClean || ln.phase == lanePhasePersist {
				vr.lockMask |= 1 << uint(i)
			}
		}
	}
}

// finishFailed routes a just-failed lane into the persistence window (the
// configuration is already repaired) or marks it done, mirroring
// injectOne's post-failure flow.
func (vr *vectorRunner) finishFailed(ln *laneRun, opts Options) {
	if opts.ClassifyPersistence && opts.PersistWindow > 0 {
		ln.phase = lanePhasePersist
		ln.stepsInPhase = 0
		ln.clean = 0
		return
	}
	if opts.ClassifyPersistence {
		// Degenerate zero-length window: the scalar loop body never runs,
		// so clean stays 0 and the bit classifies persistent.
		ln.persistent = 0 < opts.CleanRun
	}
	ln.phase = lanePhaseDone
}

// emitBatch folds completed lane outcomes into the accumulator in
// ascending bit-address order, independent of the order lanes retired —
// the invariant that keeps vector reports byte-identical to scalar ones
// (per-kind maps, persistence tallies, and SensitiveBits all accumulate
// in the same order injectOne would have produced).
func emitBatch(lanes []laneRun, cr *ChunkResult) {
	sort.SliceStable(lanes, func(i, j int) bool { return lanes[i].addr < lanes[j].addr })
	for i := range lanes {
		ln := &lanes[i]
		cr.CyclesSimulated += ln.cycles
		cr.CyclesSkipped += ln.skipped
		if !ln.failed {
			continue
		}
		cr.Failures++
		cr.FailuresByKind[ln.kind]++
		if ln.persistent {
			cr.Persistent++
		}
		cr.Bits = append(cr.Bits, BitRecord{
			Addr: ln.addr, Kind: ln.kind, Persistent: ln.persistent,
			FirstErrorCycle: ln.firstErr, FailedOutputs: ln.failedOutputs,
		})
	}
}
