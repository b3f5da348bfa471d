package seu

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/device"
)

// Resumable chunked execution. Every in-process and distributed campaign
// runs as an explicit chunk plan: PlanChunks cuts the sweep into address
// ranges, a ChunkRunner turns each range into a serializable ChunkResult,
// and AssembleReport folds the results. The plan is a pure function of
// (geometry, options, chunk cap) and every chunk's result a pure function of
// (plan entry, options), so a sweep interrupted at any chunk boundary and
// resumed later — even by a different process at a different worker count —
// assembles into a Report byte-identical to an uninterrupted Run. The
// campaign service checkpoints each ChunkResult as it lands.

// ChunkSpec is one contiguous bit-address range of a campaign's sweep.
type ChunkSpec struct {
	Index int   `json:"index"`
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
}

// PlanChunks decomposes the campaign over g into at most maxChunks
// contiguous address ranges covering exactly the range Run would sweep.
// The plan depends only on (g, opts, maxChunks) — never on worker count —
// so a checkpoint directory written under one scheduler configuration is
// valid under any other.
func PlanChunks(g device.Geometry, opts Options, maxChunks int) []ChunkSpec {
	limit, _ := selectionPlan(opts, g.TotalBits())
	return planChunks(limit, maxChunks)
}

// planChunks cuts [0, limit) into at most maxChunks equal spans.
func planChunks(limit int64, maxChunks int) []ChunkSpec {
	if maxChunks < 1 {
		maxChunks = 1
	}
	n := int64(maxChunks)
	if n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	span := (limit + n - 1) / n
	var plan []ChunkSpec
	for lo := int64(0); lo < limit; lo += span {
		hi := lo + span
		if hi > limit {
			hi = limit
		}
		plan = append(plan, ChunkSpec{Index: len(plan), Lo: lo, Hi: hi})
	}
	if plan == nil {
		// Degenerate campaign (nothing selected); one empty chunk keeps
		// "every plan has at least one chunk" true for schedulers.
		plan = []ChunkSpec{{Index: 0}}
	}
	return plan
}

// ChunkResult is the outcome of one chunk: the accumulator the injection
// loop writes into while the chunk runs, and the serialized checkpoint unit
// once it is done.
type ChunkResult struct {
	Index            int         `json:"index"`
	Injections       int64       `json:"injections"`
	Failures         int64       `json:"failures"`
	Persistent       int64       `json:"persistent"`
	TriageSkipped    int64       `json:"triage_skipped"`
	CyclesSimulated  int64       `json:"cycles_simulated"`
	CyclesSkipped    int64       `json:"cycles_skipped"`
	SimulatedTimeNs  int64       `json:"simulated_time_ns"`
	InjectionsByKind KindCounts  `json:"injections_by_kind"`
	FailuresByKind   KindCounts  `json:"failures_by_kind"`
	Bits             []BitRecord `json:"bits,omitempty"`
}

func newChunkResult(index int) *ChunkResult {
	return &ChunkResult{
		Index:            index,
		InjectionsByKind: make(KindCounts),
		FailuresByKind:   make(KindCounts),
	}
}

// CanonicalJSON returns the result's canonical serialized form — the bytes
// checkpoint stores persist and content-hash. Determinism holds because
// every field marshals order-independently: KindCounts renders with sorted
// keys and Bits is emitted in ascending address order by the accumulator,
// so the same chunk of the same campaign always serializes to the same
// bytes, on any node.
func (cr *ChunkResult) CanonicalJSON() ([]byte, error) {
	return json.Marshal(cr)
}

// Hash is the content hash (hex SHA-256) of CanonicalJSON — the identity a
// chunk result commits under. Duplicate completions of a chunk (e.g. after
// a lease steal re-issued it) hash identically, which is what lets a
// distributed commit be first-valid-wins with byte-identical no-ops.
func (cr *ChunkResult) Hash() (string, error) {
	b, err := cr.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ChunkRunner executes chunks of one campaign on one board replica. The
// base runner owns the campaign-scoped immutable state (golden snapshot,
// triage mask, pre-plan); Clone derives additional runners for concurrent
// workers that share it.
type ChunkRunner struct {
	bd     *board.SLAAC1V
	golden *bitstream.Memory
	tri    *triage
	fs     *frameScrub
	fast   bool
	opts   Options
	plan   *prePlan
	vr     *vectorRunner // built by the first Run
	// limit and expected are selectionPlan's sweep end and injection
	// count, kept because the scan costs a hash per bit when sampling.
	limit, expected int64
	// clone marks a runner made by Clone, whose board Release may drop;
	// the base runner's board belongs to the caller.
	clone bool
}

// NewChunkRunner prepares bd for chunked execution of the campaign opts
// describes: kernel selection, golden snapshot, (if enabled) the static
// triage mask and, on the vector kernel, the compiled design and pre-plan —
// exactly the preamble of Run.
func NewChunkRunner(bd *board.SLAAC1V, opts Options) (*ChunkRunner, error) {
	if opts.ObserveCycles <= 0 || opts.CleanRun <= 0 {
		return nil, fmt.Errorf("seu: non-positive cycle counts")
	}
	bd.SetEventDriven(opts.Kernel.scalarEventDriven())
	r := &ChunkRunner{
		bd:     bd,
		golden: bd.DUT.ConfigMemory().Clone(),
		fs:     newFrameScrub(bd.Geometry()),
		// Convergence early exit is exact only when no live design state
		// survives a campaign reset; history-coupled configurations keep
		// simulating every cycle (the kernel choice alone is always exact).
		fast: opts.FastSim && !bd.DUT.HistoryCoupled(),
		opts: opts,
	}
	if opts.Triage {
		r.tri = newTriage(bd)
	}
	r.limit, r.expected = selectionPlan(opts, bd.Geometry().TotalBits())
	r.plan = campaignPlan(bd, opts, r.limit, r.tri)
	return r, nil
}

// Clone returns a runner on a fresh replica of r's board. The triage mask,
// golden snapshot and pre-plan are immutable and shared; the dirty-frame
// tracker and vector batch scheduler are per replica. The seed only
// decorrelates the replica's idle rng — results are independent of it.
func (r *ChunkRunner) Clone(seed int64) *ChunkRunner {
	replicasCloned.Add(1)
	wb := r.bd.Clone(seed)
	wb.SetEventDriven(r.opts.Kernel.scalarEventDriven())
	return &ChunkRunner{
		bd:       wb,
		golden:   r.golden,
		tri:      r.tri,
		fs:       newFrameScrub(wb.Geometry()),
		fast:     r.fast,
		opts:     r.opts,
		plan:     r.plan,
		limit:    r.limit,
		expected: r.expected,
		clone:    true,
	}
}

// Release drops a cloned runner's board replica and lane machines, so a
// finished worker's memory can be reclaimed while other chunks still run.
// The runner must not Run again. No-op on the base runner, whose board
// belongs to the caller.
func (r *ChunkRunner) Release() {
	if r.clone {
		r.bd, r.fs, r.vr = nil, nil, nil
	}
}

// Run executes one chunk, returning its serializable result. A cancelled
// context aborts between injections with ctx's error and no result.
func (r *ChunkRunner) Run(ctx context.Context, spec ChunkSpec) (*ChunkResult, error) {
	if r.vr == nil {
		// Lane machines are allocated on first use, so a runner that only
		// seeds clones (RunContext's at several workers) never holds any.
		r.vr = maybeNewVectorRunner(r.bd, r.plan)
	}
	cr := newChunkResult(spec.Index)
	if err := runRange(ctx, r.bd, r.golden, spec.Lo, spec.Hi, r.opts, cr, r.tri, r.fs, r.fast, r.vr, r.plan); err != nil {
		return nil, err
	}
	return cr, nil
}

// AssembleReport folds this campaign's chunk results into its Report; see
// the package-level AssembleReport.
func (r *ChunkRunner) AssembleReport(results []*ChunkResult) *Report {
	return AssembleReport(r.bd, results)
}

// AssembleReport folds chunk results of a campaign on bd — in any order,
// e.g. fresh runs mixed with checkpoints loaded from disk — into the Report
// an uninterrupted Run of the same campaign produces. It reads only bd's
// design name, geometry and slice count. The caller owns WallTime.
func AssembleReport(bd *board.SLAAC1V, results []*ChunkResult) *Report {
	ordered := append([]*ChunkResult(nil), results...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Index < ordered[j].Index })
	rep := &Report{
		Design:           bd.Placed.Circuit.Name,
		Geom:             bd.Geometry(),
		SlicesUsed:       bd.Placed.SlicesUsed(),
		InjectionsByKind: make(KindCounts),
		FailuresByKind:   make(KindCounts),
	}
	for _, cr := range ordered {
		rep.Injections += cr.Injections
		rep.Failures += cr.Failures
		rep.Persistent += cr.Persistent
		rep.TriageSkipped += cr.TriageSkipped
		rep.CyclesSimulated += cr.CyclesSimulated
		rep.CyclesSkipped += cr.CyclesSkipped
		rep.SimulatedTime += time.Duration(cr.SimulatedTimeNs)
		for k, n := range cr.InjectionsByKind {
			rep.InjectionsByKind[k] += n
		}
		for k, n := range cr.FailuresByKind {
			rep.FailuresByKind[k] += n
		}
		rep.SensitiveBits = append(rep.SensitiveBits, cr.Bits...)
	}
	sort.Slice(rep.SensitiveBits, func(i, j int) bool {
		return rep.SensitiveBits[i].Addr < rep.SensitiveBits[j].Addr
	})
	return rep
}
