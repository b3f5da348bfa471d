package seu_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/board"
	"repro/internal/crosscheck"
	"repro/internal/device"
	"repro/internal/seu"
)

// resultsOnly strips a report's diagnostics — wall time, the triage tally
// and the cycle split — leaving the fields every kernel must agree on.
func resultsOnly(r *seu.Report) seu.Report {
	c := *r
	c.WallTime, c.TriageSkipped, c.CyclesSimulated, c.CyclesSkipped = 0, 0, 0, 0
	return c
}

// oracleOpts returns opts turned into the whole oracle: the scalar sweep
// kernel with triage and the lock-step exit off.
func oracleOpts(opts seu.Options) seu.Options {
	opts.Kernel, opts.Triage, opts.FastSim = seu.KernelSweep, false, false
	return opts
}

// bramStress returns the bram and mix stress designs on g.
func bramStress(t *testing.T, g device.Geometry, seed int64) []crosscheck.Design {
	t.Helper()
	ds, err := crosscheck.StressDesigns(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds[1:] // StressDesigns returns srl, bram, mix
}

// TestBRAMStressMatchesOracle runs the BRAM-heavy stress designs (bram,
// mix) on small, where every BRAM content flip rides a vector lane as a
// word overlay and unmapped BRAM slots retire in the planner, against the
// whole oracle. Every result field and the sensitive-bit list must match.
func TestBRAMStressMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is not short")
	}
	g := device.Small()
	for _, seed := range []int64{1, 7} {
		for _, d := range bramStress(t, g, seed) {
			opts := seu.DefaultOptions()
			opts.Sample = 0.005
			opts.Seed = seed
			opts.Workers = 1
			run := func(opts seu.Options) *seu.Report {
				bd, err := board.New(d.Placed, seed)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := seu.Run(bd, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			want, got := run(oracleOpts(opts)), run(opts)
			if want.InjectionsByKind[device.KindBRAMContent] == 0 || want.InjectionsByKind[device.KindBRAMPort] == 0 {
				t.Fatalf("%s seed %d: sample holds no BRAM bits: %v", d.Name, seed, want.InjectionsByKind)
			}
			if w, g := resultsOnly(want), resultsOnly(got); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s seed %d: vector report differs from the oracle:\n got %+v\nwant %+v", d.Name, seed, g, w)
			}
		}
	}
}

// TestBRAMContentFramesMatchOracle sweeps every content frame of the bram
// stress design exhaustively, so the few content bits that reach an
// observed output — flips in the words the toggling address visits, on
// the observed dout bits — fail on lanes and must fail identically on the
// oracle.
func TestBRAMContentFramesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is not short")
	}
	g := device.Small()
	d := bramStress(t, g, 1)[0]
	fl := int64(g.FrameLength())
	spec := seu.ChunkSpec{Lo: int64(g.CLBFrames()) * fl, Hi: int64(g.CLBFrames()+device.BRAMContentFrames) * fl}
	opts := seu.DefaultOptions()
	opts.Sample = 1
	opts.Workers = 1
	run := func(opts seu.Options) *seu.ChunkResult {
		bd, err := board.New(d.Placed, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := seu.NewChunkRunner(bd, opts)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		cr.TriageSkipped, cr.CyclesSimulated, cr.CyclesSkipped = 0, 0, 0
		return cr
	}
	want, got := run(oracleOpts(opts)), run(opts)
	if want.FailuresByKind[device.KindBRAMContent] == 0 {
		t.Fatalf("no content flip failed: %v", want.FailuresByKind)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("vector chunk differs from the oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestRepairRestoresBRAMColumn injects every port field of the mix stress
// design's live block on the scalar path, one injection per chunk, and
// requires the DUT's configuration memory to be golden after each. A
// flipped write enable stores words into the block's content frames, so
// repairing only the injected port frame would leave the next injection
// running on corrupted content — and its outcome would depend on which
// injections ran before it on the same board.
func TestRepairRestoresBRAMColumn(t *testing.T) {
	g := device.Small()
	d := bramStress(t, g, 1)[1]
	bd, err := board.New(d.Placed, 1)
	if err != nil {
		t.Fatal(err)
	}
	golden := bd.DUT.ConfigMemory().Clone()
	r, err := seu.NewChunkRunner(bd, oracleOpts(seu.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	blk := g.BRAMBlocksPerCol() - 1 // stressMixed's block
	for k := 0; k < device.BRAMPortBits; k++ {
		a := int64(g.BRAMPortBitAddr(0, blk, k))
		if _, err := r.Run(context.Background(), seu.ChunkSpec{Lo: a, Hi: a + 1}); err != nil {
			t.Fatal(err)
		}
		if !bd.DUT.ConfigMemory().Equal(golden) {
			t.Fatalf("port bit %d (address %d) left the DUT configuration corrupted after repair", k, a)
		}
	}
}

// TestBRAMPortCarriesMatchOracle injects every port field of both blocks of
// the BRAM column, one address per chunk, on the bram and mix stress
// designs. The production path runs each mapped port flip's observe phase
// and repair on the scalar board and its clean-run and persistence windows
// on a lane; its chunk results must equal the whole oracle's, and the lanes
// must have taken convergence credit — proof that the port flips rode them.
// Limiting the production path's repair to the injected frame fails this
// test: a flipped write enable's stored words then outlive the repair, and
// a later injection on the same board runs on corrupted content.
func TestBRAMPortCarriesMatchOracle(t *testing.T) {
	g := device.Small()
	for _, seed := range []int64{1, 7} {
		for _, d := range bramStress(t, g, seed) {
			opts := seu.DefaultOptions()
			opts.Seed = seed
			opts.Workers = 1
			runner := func(opts seu.Options) *seu.ChunkRunner {
				bd, err := board.New(d.Placed, seed)
				if err != nil {
					t.Fatal(err)
				}
				r, err := seu.NewChunkRunner(bd, opts)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			vec, orc := runner(opts), runner(oracleOpts(opts))
			var skipped, failures, persistent int64
			for blk := 0; blk < g.BRAMBlocksPerCol(); blk++ {
				for k := 0; k < device.BRAMPortBits; k++ {
					a := int64(g.BRAMPortBitAddr(0, blk, k))
					spec := seu.ChunkSpec{Lo: a, Hi: a + 1}
					got, err := vec.Run(context.Background(), spec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := orc.Run(context.Background(), spec)
					if err != nil {
						t.Fatal(err)
					}
					skipped += got.CyclesSkipped
					failures += want.Failures
					persistent += want.Persistent
					got.TriageSkipped, got.CyclesSimulated, got.CyclesSkipped = 0, 0, 0
					want.TriageSkipped, want.CyclesSimulated, want.CyclesSkipped = 0, 0, 0
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s seed %d: port bit %d of block %d (address %d) differs from the oracle:\n got %+v\nwant %+v",
							d.Name, seed, k, blk, a, got, want)
					}
				}
			}
			if failures == 0 || skipped == 0 {
				t.Errorf("%s seed %d: %d port failures, %d cycles credited: want a failing port flip and lane convergence credit",
					d.Name, seed, failures, skipped)
			}
			t.Logf("%s seed %d: %d port failures (%d persistent), %d cycles skipped", d.Name, seed, failures, persistent, skipped)
		}
	}
}
