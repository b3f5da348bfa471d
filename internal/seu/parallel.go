package seu

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
)

// In-process chunk execution. A campaign's bit-address space is cut into
// contiguous chunks (PlanChunks, cutChunks); RunChunks hands them out from
// a shared cursor to a base runner plus cloned replicas of its board, each
// running the injection loop into the chunk's own ChunkResult. Because every
// injection starts from canonical board state (board.ResetCampaignState)
// and samples by per-bit hash, which replica runs which chunk cannot
// influence any outcome — AssembleReport's fold in chunk order reassembles
// exactly the sequential report.

// chunksPerWorker over-decomposes RunContext's sweep. Its chunks carry
// equal shares of the expected cost, but the cost is an estimate (a
// failure-dense chunk runs long), so several chunks per worker keep one
// slow chunk from serializing the tail of the campaign.
const chunksPerWorker = 4

// minInjectionsPerWorker is the smallest per-worker work worth a board
// clone, counted in selected injections or, with a pre-plan, in lane
// injections of board work (actCost); smaller campaigns run with fewer
// workers than requested.
const minInjectionsPerWorker = 64

// RunChunks runs specs on base plus up to workers-1 clones of it, calling
// commit once per chunk result from the goroutine that ran the chunk. All
// clones are taken before base runs anything: cloning while the base board
// is mid-injection would snapshot a dirty replica.
//
// Closing stop ends the hand-out of new chunks; chunks already running
// finish and commit, and RunChunks returns nil with the rest unrun. The
// first chunk or commit error, or ctx's end, aborts the run and is
// returned. Each worker releases its runner as soon as it stops, so a
// finished clone's board and lane machines are not kept while a long chunk
// finishes elsewhere. busy, when non-nil, is told +1 and -1 around each
// chunk run, for a caller's in-flight gauge.
func RunChunks(ctx context.Context, base *ChunkRunner, specs []ChunkSpec, workers int, stop <-chan struct{}, busy func(delta int), commit func(ChunkSpec, *ChunkResult) error) error {
	workers = max(1, min(workers, len(specs)))
	runners := make([]*ChunkRunner, workers)
	runners[0] = base
	for i := 1; i < workers; i++ {
		runners[i] = base.Clone(base.opts.Seed + int64(i))
	}
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for i, r := range runners {
		runners[i] = nil // a clone is unreachable once its worker exits
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.Release()
			for !closed(stop) {
				if ctx.Err() != nil {
					return
				}
				k := next.Add(1) - 1
				if k >= int64(len(specs)) {
					break
				}
				if busy != nil {
					busy(1)
				}
				cr, err := r.Run(ctx, specs[k])
				if busy != nil {
					busy(-1)
				}
				if err == nil {
					err = commit(specs[k], cr)
				}
				if err != nil {
					abort(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// closed reports whether ch is closed; a nil ch never is.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// runRange executes the injection loop over bit addresses [lo, hi) on bd.
// tri is the shared read-only sensitivity triage (nil = disabled); fs is
// bd's dirty-frame tracker, owned by the worker driving bd; vr is the
// worker's vector-kernel batch scheduler and plan the campaign pre-plan
// (both nil on scalar campaigns). Cancellation is checked before every
// injection (and periodically across skipped spans), so a cancelled
// campaign stops with the board between iterations, never mid-repair. A
// pending vector batch always flushes inside the range that enqueued it,
// so chunk results stay a pure function of their spec.
func runRange(ctx context.Context, bd *board.SLAAC1V, golden *bitstream.Memory, lo, hi int64, opts Options, cr *ChunkResult, tri *triage, fs *frameScrub, vr *vectorRunner, plan *prePlan) error {
	if vr != nil {
		return runPlannedRange(ctx, bd, golden, plan, lo, hi, opts, cr, tri, fs, vr)
	}
	g := bd.Geometry()
	for a := device.BitAddr(lo); int64(a) < hi; a++ {
		// The sampling skip path costs one hash per address; amortize the
		// cancellation check over skipped spans so it stays invisible there.
		if a&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !selected(opts, a) {
			continue
		}
		info := g.Classify(a)
		cr.Injections++
		cr.InjectionsByKind[info.Kind]++
		cr.SimulatedTimeNs += int64(board.InjectLoopTime)
		if info.Kind == device.KindPad || info.Kind == device.KindExtra {
			continue // provably benign: no decoded behaviour depends on it
		}
		if tri.inert(a) {
			cr.TriageSkipped++
			continue // provably outside every observed output's cone
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := injectOne(bd, golden, a, info.Kind, opts, cr, fs); err != nil {
			return err
		}
	}
	return nil
}

// runPlannedRange is the vector-kernel image of runRange: instead of
// re-classifying every address, it folds the window's injection tallies
// from the pre-plan and walks only the entries for [lo, hi) that need board
// work, dispatching on each entry's precomputed disposition. The planner
// never runs here — classification happened exactly once per sampled bit,
// in buildPrePlan.
func runPlannedRange(ctx context.Context, bd *board.SLAAC1V, golden *bitstream.Memory, plan *prePlan, lo, hi int64, opts Options, cr *ChunkResult, tri *triage, fs *frameScrub, vr *vectorRunner) error {
	kinds, triaged := plan.tally(lo, hi, opts, bd.Geometry(), tri)
	for k, n := range kinds {
		if n != 0 {
			cr.Injections += n
			cr.InjectionsByKind[device.BitKind(k)] += n
			cr.SimulatedTimeNs += n * int64(board.InjectLoopTime)
		}
	}
	cr.TriageSkipped += triaged
	entries := plan.window(lo, hi)
	for i := range entries {
		e := &entries[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		switch e.act {
		case planVector:
			vr.enqueueVector(e)
		case planCarry:
			if err := vr.enqueueCarry(bd, golden, e, opts, cr, fs); err != nil {
				return err
			}
		}
		if vr.shouldFlush() {
			vr.flush(opts, cr)
		}
	}
	vr.flush(opts, cr)
	return nil
}
