package seu

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
)

// cutChunkCounts are the chunk caps the cut properties are checked at: one
// chunk, the bench's two workers (8), RunContext at 3 and 13 workers, the
// service's 64, and more chunks than most plans have entries.
var cutChunkCounts = []int{1, 2, 3, 8, 12, 52, 64, 5000}

// chunkCost is the summed actCost of the entries spec covers.
func chunkCost(plan *prePlan, spec ChunkSpec) int64 {
	var c int64
	for _, e := range plan.window(spec.Lo, spec.Hi) {
		c += actCost[e.act]
	}
	return c
}

// syntheticPlan is a plan over [0, limit) holding one entry per address in
// addrs (ascending) with the given dispositions.
func syntheticPlan(limit int64, addrs []device.BitAddr, acts []planAct) *prePlan {
	p := &prePlan{limit: limit}
	for i, a := range addrs {
		p.entries = append(p.entries, planEntry{addr: a, act: acts[i]})
		p.work += actCost[acts[i]]
	}
	return p
}

// checkCut asserts the cut's structural contract: the chunks cover
// [0, limit) contiguously in ascending order with sequential indices, none
// is empty (unless the campaign selects nothing), there are at most
// maxChunks of them, every interior edge is an entry address, and a
// second cut is identical.
func checkCut(t *testing.T, label string, plan *prePlan, limit int64, maxChunks int) []ChunkSpec {
	t.Helper()
	specs := cutChunks(limit, maxChunks, plan)
	if len(specs) == 0 || len(specs) > max(maxChunks, 1) {
		t.Fatalf("%s at %d: %d chunks", label, maxChunks, len(specs))
	}
	if again := cutChunks(limit, maxChunks, plan); !reflect.DeepEqual(specs, again) {
		t.Fatalf("%s at %d: two cuts differ:\n%v\n%v", label, maxChunks, specs, again)
	}
	if limit == 0 {
		if want := []ChunkSpec{{Index: 0}}; !reflect.DeepEqual(specs, want) {
			t.Fatalf("%s at %d: empty campaign cut %v, want %v", label, maxChunks, specs, want)
		}
		return specs
	}
	isEntry := map[int64]bool{}
	if plan != nil {
		for _, e := range plan.entries {
			isEntry[int64(e.addr)] = true
		}
	}
	var next int64
	for i, s := range specs {
		if s.Index != i || s.Lo != next || s.Hi <= s.Lo {
			t.Fatalf("%s at %d: chunk %d is %+v after edge %d: %v", label, maxChunks, i, s, next, specs)
		}
		if plan != nil && i > 0 && !isEntry[s.Lo] {
			t.Fatalf("%s at %d: interior edge %d is no entry address", label, maxChunks, s.Lo)
		}
		next = s.Hi
	}
	if next != limit {
		t.Fatalf("%s at %d: chunks end at %d, limit %d", label, maxChunks, next, limit)
	}
	return specs
}

// TestCutChunksProperties pins cutChunks' contract on real pre-plans
// (every selection shape of the window-tally tests) and on synthetic ones
// (no entry, one entry, entries at both ends of the range, one expensive
// entry among cheap ones), and that without a plan it is planChunks.
func TestCutChunksProperties(t *testing.T) {
	for _, limit := range []int64{0, 1, 7, 64, 100003} {
		for _, n := range cutChunkCounts {
			checkCut(t, "nil plan", nil, limit, n)
			if got, want := cutChunks(limit, n, nil), planChunks(limit, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("nil plan, limit %d at %d: %v, planChunks %v", limit, n, got, want)
			}
		}
	}
	v, c := planVector, planCarry
	synthetic := []struct {
		name string
		plan *prePlan
	}{
		{"no entries", syntheticPlan(5000, nil, nil)},
		{"empty campaign", syntheticPlan(0, nil, nil)},
		{"one entry at 0", syntheticPlan(10, []device.BitAddr{0}, []planAct{v})},
		{"one entry at the end", syntheticPlan(10, []device.BitAddr{9}, []planAct{c})},
		{"both ends", syntheticPlan(10, []device.BitAddr{0, 9}, []planAct{v, v})},
		{"every address", syntheticPlan(6, []device.BitAddr{0, 1, 2, 3, 4, 5}, []planAct{v, c, c, v, v, c})},
		{"one expensive entry", syntheticPlan(1000, []device.BitAddr{3, 4, 5, 500, 998, 999}, []planAct{v, v, v, c, v, v})},
	}
	for _, sp := range synthetic {
		for _, n := range cutChunkCounts {
			checkCut(t, sp.name, sp.plan, sp.plan.limit, n)
		}
	}
	for _, sb := range windowTallyBoards {
		spec, err := designs.ByName(sb.design)
		if err != nil {
			t.Fatal(err)
		}
		bd := boardFor(t, spec.Build(), sb.geom)
		comp := board.CompileVector(bd)
		tri := newTriage(bd)
		for _, cc := range windowTallyCampaigns {
			opts := DefaultOptions()
			opts.Sample, opts.MaxBits, opts.Seed = cc.sample, cc.maxBits, 5
			limit, _ := selectionPlan(opts, sb.geom.TotalBits())
			plan := buildPrePlan(bd, opts, limit, tri, comp)
			for _, n := range cutChunkCounts {
				checkCut(t, sb.design+"/"+cc.name, plan, limit, n)
			}
		}
	}
}

// TestCutChunksBalance is the regression test for full-device skew: on
// xqvr1000 the catalogue designs fill about 1% of the slices, so an
// equal-span cut put 97% of LFSR 72's board work in one of 8 chunks. The
// cost cut must keep every chunk within an even share plus one entry, and
// the equal-span cut must break that bound (else this test pins nothing).
func TestCutChunksBalance(t *testing.T) {
	const chunks = 8
	for _, name := range []string{"LFSR 72", "VMULT 72"} {
		spec, err := designs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bd := boardFor(t, spec.Build(), device.XQVR1000())
		r, err := NewChunkRunner(bd, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		plan := r.plan
		var largest int64
		for _, e := range plan.entries {
			largest = max(largest, actCost[e.act])
		}
		bound := plan.work/chunks + largest
		specs := checkCut(t, name, plan, r.limit, chunks)
		if len(specs) != chunks {
			t.Fatalf("%s: %d chunks, want %d", name, len(specs), chunks)
		}
		for _, s := range specs {
			if c := chunkCost(plan, s); c > bound {
				t.Errorf("%s: chunk %d [%d, %d) costs %d of %d, bound %d", name, s.Index, s.Lo, s.Hi, c, plan.work, bound)
			}
		}
		var spanMax int64
		for _, s := range planChunks(r.limit, chunks) {
			spanMax = max(spanMax, chunkCost(plan, s))
		}
		if spanMax <= bound {
			t.Errorf("%s: the equal-span cut's largest chunk costs %d, within the bound %d", name, spanMax, bound)
		}
	}
}

// TestWorkerClampCountsBoardWork pins the worker clamp to the pre-plan's
// board work: a sparse full-device sample selects thousands of bits, but
// nearly all are padding or triage-inert, so RunContext must run it on the
// caller's board without cloning a replica it has no work for, and report
// what one worker reports.
func TestWorkerClampCountsBoardWork(t *testing.T) {
	spec, err := designs.ByName("LFSR 72")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.XQVR1000())
	opts := DefaultOptions()
	opts.Sample, opts.Seed = 0.0005, 1
	r, err := NewChunkRunner(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.expected < 4*minInjectionsPerWorker || r.plan.work >= minInjectionsPerWorker {
		t.Fatalf("campaign selects %d bits with board work %d; want many bits, little work", r.expected, r.plan.work)
	}
	opts.Workers = 1
	want, err := RunContext(context.Background(), bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	_, before := PoolStats()
	got, err := RunContext(context.Background(), bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, after := PoolStats(); after != before {
		t.Errorf("RunContext cloned %d replicas for %d units of board work", after-before, r.plan.work)
	}
	want.WallTime, got.WallTime = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report at 2 workers differs from 1 worker:\n got %+v\nwant %+v", got, want)
	}
}
