package seu

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
)

// Sharded campaign execution. The bit-address space is cut into contiguous
// chunks; workers pull chunks from a shared cursor, each running the
// injection loop on its own cloned board replica and accumulating into a
// private shardAccum. Because every injection starts from canonical board
// state (board.ResetCampaignState) and samples by per-bit hash, chunk
// scheduling cannot influence any outcome — the merge in chunk order
// reassembles exactly the sequential report.

// chunksPerWorker over-decomposes the address space so a worker stuck in a
// failure-dense chunk doesn't serialize the tail of the campaign.
const chunksPerWorker = 4

// minInjectionsPerWorker is the smallest expected per-worker injection
// count worth a board clone; smaller campaigns run with fewer workers
// than requested.
const minInjectionsPerWorker = 64

// shardAccum accumulates one chunk's share of the report.
type shardAccum struct {
	injections    int64
	failures      int64
	persistent    int64
	triageSkipped int64
	cyclesRun     int64
	cyclesSkipped int64
	simTime       time.Duration
	injByKind     map[device.BitKind]int64
	failByKind    map[device.BitKind]int64
	bits          []BitRecord
}

func newShardAccum() *shardAccum {
	return &shardAccum{
		injByKind:  make(map[device.BitKind]int64),
		failByKind: make(map[device.BitKind]int64),
	}
}

// mergeInto folds one chunk accumulator into the report. Chunks are folded
// in ascending chunk order, and addresses ascend within a chunk, so
// SensitiveBits arrives already sorted by Addr.
func mergeInto(rep *Report, acc *shardAccum) {
	if acc == nil {
		return
	}
	rep.Injections += acc.injections
	rep.Failures += acc.failures
	rep.Persistent += acc.persistent
	rep.TriageSkipped += acc.triageSkipped
	rep.CyclesSimulated += acc.cyclesRun
	rep.CyclesSkipped += acc.cyclesSkipped
	rep.SimulatedTime += acc.simTime
	for k, n := range acc.injByKind {
		rep.InjectionsByKind[k] += n
	}
	for k, n := range acc.failByKind {
		rep.FailuresByKind[k] += n
	}
	rep.SensitiveBits = append(rep.SensitiveBits, acc.bits...)
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
func runRange(ctx context.Context, bd *board.SLAAC1V, golden *bitstream.Memory, lo, hi int64, opts Options, acc *shardAccum, tri *triage, fs *frameScrub, fast bool, vr *vectorRunner, plan *prePlan) error {
	if vr != nil {
		return runPlannedRange(ctx, bd, golden, plan, lo, hi, opts, acc, tri, fs, fast, vr)
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
		acc.injections++
		acc.injByKind[info.Kind]++
		acc.simTime += board.InjectLoopTime
		if info.Kind == device.KindPad || info.Kind == device.KindExtra {
			continue // provably benign: no decoded behaviour depends on it
		}
		if tri.inert(a) {
			acc.triageSkipped++
			continue // provably outside every observed output's cone
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := injectOne(bd, golden, a, info.Kind, stimulusSeed(opts.Seed, a), opts, acc, fs, fast); err != nil {
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
func runPlannedRange(ctx context.Context, bd *board.SLAAC1V, golden *bitstream.Memory, plan *prePlan, lo, hi int64, opts Options, acc *shardAccum, tri *triage, fs *frameScrub, fast bool, vr *vectorRunner) error {
	kinds, triaged := plan.tally(lo, hi, opts, bd.Geometry(), tri)
	for k, n := range kinds {
		if n != 0 {
			acc.injections += n
			acc.injByKind[device.BitKind(k)] += n
			acc.simTime += time.Duration(n) * board.InjectLoopTime
		}
	}
	acc.triageSkipped += triaged
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
			if err := vr.enqueueCarry(bd, golden, e, opts, acc, fs); err != nil {
				return err
			}
		case planScalar:
			if err := injectOne(bd, golden, e.addr, e.kind, e.seed, opts, acc, fs, fast); err != nil {
				return err
			}
			continue
		}
		if vr.shouldFlush() {
			vr.flush(opts, acc, fast)
		}
	}
	vr.flush(opts, acc, fast)
	return nil
}

// runSharded fans the range [0, limit) out over workers cloned boards and
// returns the per-chunk accumulators in chunk order.
func runSharded(ctx context.Context, bd *board.SLAAC1V, golden *bitstream.Memory, limit int64, workers int, opts Options, tri *triage, fast bool, plan *prePlan) ([]*shardAccum, error) {
	chunks := workers * chunksPerWorker
	if int64(chunks) > limit {
		chunks = int(limit)
	}
	if chunks < 1 {
		chunks = 1
	}
	span := (limit + int64(chunks) - 1) / int64(chunks)
	accs := make([]*shardAccum, chunks)
	var (
		cursor int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errCh := make(chan error, workers)
	var tag uint64
	if poolEligible(bd) {
		tag = bd.CampaignFingerprint()
	}
	for w := 0; w < workers; w++ {
		// The clone seed is irrelevant to results (every injection re-seeds
		// the stimulus stream) but must differ per worker for rng hygiene.
		// Replicas parked by earlier campaigns of the same design are
		// reused when their fingerprint matches.
		wb := acquireReplica(bd, tag, opts.Seed+int64(w)+1)
		wb.SetFastSim(opts.Kernel.scalarEventDriven())
		wg.Add(1)
		go func(wb *board.SLAAC1V) {
			defer wg.Done()
			// The dirty-frame tracker is per replica: it certifies frames of
			// THIS board's configuration memory, so it must live as long as
			// the replica, not per chunk.
			fs := newFrameScrub(wb.Geometry())
			vr := maybeNewVectorRunner(wb, plan)
			for {
				ci := atomic.AddInt64(&cursor, 1) - 1
				if ci >= int64(chunks) || failed.Load() {
					// Every completed range left wb with a golden substrate;
					// park it for the next campaign of this design.
					releaseReplica(wb, tag, !failed.Load())
					return
				}
				lo := ci * span
				hi := lo + span
				if hi > limit {
					hi = limit
				}
				acc := newShardAccum()
				accs[ci] = acc
				if err := runRange(ctx, wb, golden, lo, hi, opts, acc, tri, fs, fast, vr, plan); err != nil {
					failed.Store(true)
					errCh <- err
					return
				}
			}
		}(wb)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	return accs, nil
}
