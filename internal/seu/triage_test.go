package seu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
)

// TestTriageEquivalence is the triage exactness contract: for every catalog
// design that fits the test geometry, a triage-on campaign — sequential or
// sharded — produces a report byte-identical to the triage-off reference,
// while actually skipping board work.
func TestTriageEquivalence(t *testing.T) {
	ran := 0
	for _, spec := range designs.Catalog() {
		spec := spec
		p, err := place.Place(spec.Build(), device.Tiny())
		if err != nil {
			continue // design exceeds the test geometry; covered at full scale by CI smoke runs
		}
		ran++
		t.Run(spec.Name, func(t *testing.T) {
			run := func(triage bool, workers int) *Report {
				bd, err := board.New(p, 7)
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions()
				opts.Sample = 0.06
				opts.Seed = 31
				opts.Workers = workers
				opts.Triage = triage
				rep, err := Run(bd, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			ref := run(false, 1)
			if ref.Injections == 0 {
				t.Fatal("campaign injected nothing")
			}
			if ref.TriageSkipped != 0 {
				t.Fatalf("triage-off run skipped %d bits", ref.TriageSkipped)
			}
			for _, workers := range []int{1, 3} {
				got := run(true, workers)
				assertReportsEqual(t, ref, got)
				if got.TriageSkipped == 0 {
					t.Errorf("workers=%d: triage active but skipped nothing", workers)
				}
			}
		})
	}
	if ran < 5 {
		t.Fatalf("only %d catalog designs fit the test geometry", ran)
	}
}

// TestTriageSkippedBitsAreBenign re-runs the full injection procedure on a
// random sample of bits the triage proved inert — restricted to bits the
// pad retirement would NOT have caught — and demands every one behaves as
// a benign injection: no failure, configuration fully restored, board still
// in lock-step.
func TestTriageSkippedBitsAreBenign(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	g := bd.Geometry()
	golden := bd.DUT.ConfigMemory().Clone()
	tri := newTriage(bd)

	var inert []device.BitAddr
	for a := device.BitAddr(0); int64(a) < g.TotalBits(); a++ {
		info := g.Classify(a)
		if info.Kind == device.KindPad || info.Kind == device.KindExtra {
			continue
		}
		if tri.inert(a) {
			inert = append(inert, a)
		}
	}
	if len(inert) == 0 {
		t.Fatal("triage proved no non-padding bit inert")
	}

	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(inert), func(i, j int) { inert[i], inert[j] = inert[j], inert[i] })
	if len(inert) > 250 {
		inert = inert[:250]
	}
	opts := DefaultOptions()
	opts.Seed = 31
	acc := newChunkResult(0)
	fs := newFrameScrub(g)
	for _, a := range inert {
		if err := injectOne(bd, golden, a, g.Classify(a).Kind, opts, acc, fs); err != nil {
			t.Fatalf("bit %d: %v", a, err)
		}
		if acc.Failures != 0 {
			t.Fatalf("triage-skipped bit %d caused an output failure", a)
		}
	}
	if !bd.DUT.ConfigMemory().Equal(golden) {
		t.Fatal("inert injections left configuration corruption")
	}
	if mism, _ := bd.StepN(50); mism != 0 {
		t.Fatal("board not in lock-step after inert injections")
	}
}

// TestSelectionPlanCountsExactly pins the satellite fix to the worker-count
// heuristic: selectionPlan's expected-injection count must equal the number
// of bits the campaign actually injects, for sampled, exhaustive, and
// MaxBits-capped configurations alike.
func TestSelectionPlanCountsExactly(t *testing.T) {
	const total = 50_000
	cases := []Options{
		{Sample: 1.0},
		{Sample: 1.0, MaxBits: 700},
		{Sample: 0.03, Seed: 5},
		{Sample: 0.03, Seed: 5, MaxBits: 200},
		{Sample: 0.5, Seed: 9, MaxBits: 1_000_000}, // cap beyond the selection
		{Sample: 0},
	}
	for i, opts := range cases {
		t.Run(fmt.Sprintf("case_%d", i), func(t *testing.T) {
			limit, count := selectionPlan(opts, total)
			if limit > total {
				t.Fatalf("limit %d beyond total %d", limit, total)
			}
			var brute int64
			for a := device.BitAddr(0); int64(a) < limit; a++ {
				if selected(opts, a) {
					brute++
				}
			}
			if brute != count {
				t.Errorf("selectionPlan count %d, actual selections in [0,limit) %d", count, brute)
			}
			if opts.MaxBits > 0 && count > opts.MaxBits {
				t.Errorf("count %d exceeds MaxBits %d", count, opts.MaxBits)
			}
			// Beyond an uncapped limit nothing may remain selected.
			if opts.MaxBits == 0 && limit < total {
				t.Errorf("uncapped plan truncated the address space at %d", limit)
			}
		})
	}
}
