package seu

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
)

// windowTallyCampaigns are the selection shapes the sparse pre-plan must
// account for exactly: exhaustive, hash-sampled, and MaxBits-capped (whose
// limit falls mid-block).
var windowTallyCampaigns = []struct {
	name    string
	sample  float64
	maxBits int64
}{
	{"exhaustive", 1, 0},
	{"sample-0.03", 0.03, 0},
	{"sample-0.15", 0.15, 0},
	{"capped-0.15", 0.15, 3001},
	{"capped-exhaustive", 1, 70001},
}

// windowTallyBoards are the substrates of the window-tally tests.
var windowTallyBoards = []struct {
	design string
	geom   device.Geometry
}{
	{"MULT 12", device.Tiny()},
	{"LFSR 72", device.Small()},
}

// planReference is the per-bit walk the sparse plan must agree with: each
// address's selected kind (-1 when not selected), its triage verdict, and
// the board-work entries in address order.
type planReference struct {
	kind    []int8
	triaged []bool
	entries []planEntry
}

func walkPlanReference(bd *board.SLAAC1V, opts Options, limit int64, tri *triage) *planReference {
	g := bd.Geometry()
	ref := &planReference{kind: make([]int8, limit), triaged: make([]bool, limit)}
	for a := device.BitAddr(0); int64(a) < limit; a++ {
		ref.kind[a] = -1
		if !selected(opts, a) {
			continue
		}
		info := g.Classify(a)
		ref.kind[a] = int8(info.Kind)
		if info.Kind == device.KindPad || info.Kind == device.KindExtra {
			continue
		}
		if tri.inert(a) {
			ref.triaged[a] = true
			continue
		}
		d, ok := bd.Golden.PlanVectorDelta(a, info)
		e := planEntry{addr: a, kind: info.Kind, seed: stimulusSeed(opts.Seed, a)}
		switch {
		case ok && d.Inert():
			continue
		case ok:
			e.act, e.delta = planVector, d
		case bd.Golden.DemotedWindowable(info):
			e.act = planCarry
		default:
			e.act = planScalar
		}
		ref.entries = append(ref.entries, e)
	}
	return ref
}

// tallyWindows returns the [lo, hi) windows checked over a plan of the
// given limit: the whole range, empty and past-the-limit windows, random
// windows, single addresses, windows inside one block, and windows that
// straddle one or two block edges or align with them exactly.
func tallyWindows(limit int64, rng *rand.Rand) [][2]int64 {
	const b = planBlockBits
	ws := [][2]int64{{0, limit}, {0, 0}, {limit, limit}, {limit / 3, limit + 100}, {-5, 7},
		{limit + 1, limit + 9}, {1<<63 - 2, 1<<63 - 1}, {b + 9, b - 9}} // out of range and inverted: empty
	clamp := func(lo, hi int64) [2]int64 {
		lo, hi = max(lo, 0), min(hi, limit)
		return [2]int64{lo, max(lo, hi)}
	}
	for i := 0; i < 24; i++ {
		lo := rng.Int63n(limit + 1)
		ws = append(ws, clamp(lo, lo+rng.Int63n(limit-lo+1)))
	}
	for _, a := range []int64{0, b - 1, b, b + 1, limit - 1, rng.Int63n(limit), rng.Int63n(limit)} {
		ws = append(ws, clamp(a, a+1))
	}
	blocks := (limit + b - 1) / b
	for i := 0; i < 8; i++ {
		j := rng.Int63n(blocks)
		lo := j*b + rng.Int63n(b/2)
		ws = append(ws, clamp(lo, lo+1+rng.Int63n(b/2-1))) // inside block j
		if j > 0 {
			d1, d2 := 1+rng.Int63n(b-1), 1+rng.Int63n(b-1)
			ws = append(ws,
				clamp(j*b-d1, j*b+d2),         // straddles one edge
				clamp((j-1)*b+d1, (j+1)*b-d2), // two partial blocks, no whole one
				clamp(j*b-d1, (j+1)*b+d2),     // one whole block plus both edges
				clamp((j-1)*b, (j+1)*b),       // block-aligned
			)
		}
	}
	return ws
}

// TestPlanWindowTallies pins the sparse pre-plan's accounting: for every
// window, the block tallies plus edge rescans must equal a per-bit
// selected/Classify/inert walk, and the window's entries must be exactly
// the bits the planner sends to the board.
func TestPlanWindowTallies(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, sb := range windowTallyBoards {
		spec, err := designs.ByName(sb.design)
		if err != nil {
			t.Fatal(err)
		}
		bd := boardFor(t, spec.Build(), sb.geom)
		comp := board.CompileVector(bd)
		tri := newTriage(bd)
		g := bd.Geometry()
		for _, c := range windowTallyCampaigns {
			opts := DefaultOptions()
			opts.Sample, opts.MaxBits, opts.Seed = c.sample, c.maxBits, 5
			limit, _ := selectionPlan(opts, g.TotalBits())
			plan := buildPrePlan(bd, opts, limit, tri, comp)
			checkSparseEntries(t, bd, plan, tri)
			ref := walkPlanReference(bd, opts, limit, tri)
			if !reflect.DeepEqual(plan.entries, ref.entries) {
				t.Fatalf("%s/%s: plan holds %d entries, the per-bit walk %d", sb.design, c.name, len(plan.entries), len(ref.entries))
			}
			for _, w := range tallyWindows(limit, rng) {
				lo, hi := w[0], w[1]
				var wantKinds [numKinds]int64
				var wantTriaged int64
				for a := max(lo, 0); a < min(hi, limit); a++ {
					if k := ref.kind[a]; k >= 0 {
						wantKinds[k]++
					}
					if ref.triaged[a] {
						wantTriaged++
					}
				}
				kinds, triaged := plan.tally(lo, hi, opts, g, tri)
				if kinds != wantKinds || triaged != wantTriaged {
					t.Fatalf("%s/%s window [%d,%d) of %d: tally %v/%d, per-bit walk %v/%d",
						sb.design, c.name, lo, hi, limit, kinds, triaged, wantKinds, wantTriaged)
				}
				var wantEntries []planEntry
				for _, e := range ref.entries {
					if int64(e.addr) >= lo && int64(e.addr) < hi {
						wantEntries = append(wantEntries, e)
					}
				}
				if got := plan.window(lo, hi); len(got) != len(wantEntries) || (len(got) > 0 && !reflect.DeepEqual(got, wantEntries)) {
					t.Fatalf("%s/%s window [%d,%d): %d entries, per-bit walk %d", sb.design, c.name, lo, hi, len(got), len(wantEntries))
				}
			}
		}
	}
}

// TestChunkPlanMatchesRunContext checks that the service's decomposition —
// ChunkRunner over PlanChunks(…, 64), assembled by AssembleReport — folds
// the same result as RunContext for every selection shape, so every chunk
// window's edge rescans and whole-block tallies add up exactly. The cycle
// counters are diagnostics whose split depends on batching and are not
// compared.
func TestChunkPlanMatchesRunContext(t *testing.T) {
	for _, sb := range windowTallyBoards {
		spec, err := designs.ByName(sb.design)
		if err != nil {
			t.Fatal(err)
		}
		bd := boardFor(t, spec.Build(), sb.geom)
		for _, c := range windowTallyCampaigns {
			label := sb.design + "/" + c.name
			opts := DefaultOptions()
			opts.Sample, opts.MaxBits, opts.Seed, opts.Workers = c.sample, c.maxBits, 5, 2
			want, err := RunContext(context.Background(), bd, opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := NewChunkRunner(bd, opts)
			if err != nil {
				t.Fatal(err)
			}
			clone := base.Clone(3)
			var results []*ChunkResult
			for i, spec := range PlanChunks(bd.Geometry(), opts, 64) {
				r := base
				if i%2 == 1 {
					r = clone
				}
				cr, err := r.Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, cr)
			}
			clone.Release()
			base.Release()
			if clone.bd != nil || base.bd == nil {
				t.Fatal("Release must drop a clone's board and keep the base runner's")
			}
			got := base.AssembleReport(results)
			compareReports(t, label, want, got)
			if got.TriageSkipped != want.TriageSkipped {
				t.Fatalf("%s: TriageSkipped %d, RunContext %d", label, got.TriageSkipped, want.TriageSkipped)
			}
		}
	}
}
