package seu

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
)

// assertReportsEqual demands byte-identical campaign results; only the
// wall-clock field may differ between runs.
func assertReportsEqual(t *testing.T, seq, par *Report) {
	t.Helper()
	if seq.Injections != par.Injections {
		t.Errorf("Injections: sequential %d, parallel %d", seq.Injections, par.Injections)
	}
	if seq.Failures != par.Failures {
		t.Errorf("Failures: sequential %d, parallel %d", seq.Failures, par.Failures)
	}
	if seq.Persistent != par.Persistent {
		t.Errorf("Persistent: sequential %d, parallel %d", seq.Persistent, par.Persistent)
	}
	if seq.SimulatedTime != par.SimulatedTime {
		t.Errorf("SimulatedTime: sequential %v, parallel %v", seq.SimulatedTime, par.SimulatedTime)
	}
	if !reflect.DeepEqual(seq.InjectionsByKind, par.InjectionsByKind) {
		t.Errorf("InjectionsByKind: sequential %v, parallel %v", seq.InjectionsByKind, par.InjectionsByKind)
	}
	if !reflect.DeepEqual(seq.FailuresByKind, par.FailuresByKind) {
		t.Errorf("FailuresByKind: sequential %v, parallel %v", seq.FailuresByKind, par.FailuresByKind)
	}
	if !reflect.DeepEqual(seq.SensitiveBits, par.SensitiveBits) {
		t.Errorf("SensitiveBits differ: sequential %d records, parallel %d records",
			len(seq.SensitiveBits), len(par.SensitiveBits))
	}
}

// TestParallelSequentialEquivalence is the campaign-determinism contract:
// Workers: 1 and Workers: 4 produce identical reports for catalog designs
// at sampled and exhaustive rates. The Workers: 4 runs also put the
// sharded path under the race detector in the default test suite.
func TestParallelSequentialEquivalence(t *testing.T) {
	cases := []struct {
		design  string
		sample  float64
		maxBits int64 // bounds the exhaustive cases so the suite stays fast
	}{
		{design: "MULT 12", sample: 0.1},
		{design: "MULT 12", sample: 1.0, maxBits: 9000},
		{design: "LFSR 18", sample: 0.1},
		{design: "LFSR 18", sample: 1.0, maxBits: 9000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_sample_%.1f", tc.design, tc.sample), func(t *testing.T) {
			spec, err := designs.ByName(tc.design)
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int) *Report {
				bd := boardFor(t, spec.Build(), device.Tiny())
				opts := DefaultOptions()
				opts.Sample = tc.sample
				opts.MaxBits = tc.maxBits
				opts.Seed = 11
				opts.Workers = workers
				rep, err := Run(bd, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			seq := run(1)
			par := run(4)
			if seq.Injections == 0 {
				t.Fatal("campaign injected nothing")
			}
			assertReportsEqual(t, seq, par)
			if !sort.SliceIsSorted(par.SensitiveBits, func(i, j int) bool {
				return par.SensitiveBits[i].Addr < par.SensitiveBits[j].Addr
			}) {
				t.Error("parallel SensitiveBits not sorted by Addr")
			}
		})
	}
}

// TestRunIsReplayStable guards the per-bit hash-sampling property directly:
// two runs with identical options inject the identical bit set even though
// board state and RNG streams evolved differently in between.
func TestRunIsReplayStable(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	bd := boardFor(t, spec.Build(), device.Tiny())
	opts := DefaultOptions()
	opts.Sample = 0.08
	opts.Seed = 17
	opts.Workers = 1
	first, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the board between campaigns; a replay must not care.
	bd.StepN(37)
	second, err := Run(bd, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, first, second)
}

// TestMaxBitsCapsIdenticallyAcrossWorkers pins the MaxBits semantics under
// sharding: the cap selects the first MaxBits sampled bits in address
// order, not "whichever shard got there first".
func TestMaxBitsCapsIdenticallyAcrossWorkers(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Report {
		bd := boardFor(t, spec.Build(), device.Tiny())
		opts := DefaultOptions()
		opts.Sample = 0.5
		opts.MaxBits = 700
		opts.Seed = 23
		opts.Workers = workers
		rep, err := Run(bd, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	if seq.Injections != 700 {
		t.Fatalf("MaxBits cap not honoured: %d injections", seq.Injections)
	}
	assertReportsEqual(t, seq, run(3))
}

// TestRunChunks pins the in-process executor's contract at workers {1, 3}
// and chunk counts {1, 64}: every chunk commits exactly once; a commit
// error or a cancelled ctx is returned and parks no replica; closing stop
// hands out no new chunk while chunks already running still commit.
func TestRunChunks(t *testing.T) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sample = 0.02
	opts.Seed = 3
	// newBase returns a runner on a board of a fresh placement, whose
	// replica pool only the run under test can fill. (A drained shared pool
	// would not do: sync.Pool cannot be emptied reliably across Ps.)
	newBase := func(t *testing.T) *ChunkRunner {
		p, err := place.Place(spec.Build(), device.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		bd, err := board.New(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewChunkRunner(bd, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// assertNoneParked must run on a single P (see the failure subtests):
	// sync.Pool keeps a private slot per P that no other P can Get from.
	assertNoneParked := func(t *testing.T, base *ChunkRunner) {
		if pool := replicaPoolFor(base.bd.Placed); pool != nil && pool.Get() != nil {
			t.Fatal("aborted run parked a replica in the pool")
		}
	}
	errCommit := errors.New("commit failed")
	for _, workers := range []int{1, 3} {
		for _, chunks := range []int{1, 64} {
			specs := PlanChunks(device.Tiny(), opts, chunks)
			name := fmt.Sprintf("workers=%d/chunks=%d", workers, chunks)

			t.Run(name+"/commit-once", func(t *testing.T) {
				var mu sync.Mutex
				seen := make(map[int]int)
				err := RunChunks(context.Background(), newBase(t), specs, workers, nil, nil, func(cs ChunkSpec, cr *ChunkResult) error {
					mu.Lock()
					defer mu.Unlock()
					if cr.Index != cs.Index {
						t.Errorf("chunk %d committed a result for chunk %d", cs.Index, cr.Index)
					}
					seen[cs.Index]++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range specs {
					if seen[cs.Index] != 1 {
						t.Fatalf("chunk %d committed %d times, want once", cs.Index, seen[cs.Index])
					}
				}
			})

			t.Run(name+"/commit-error", func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				base := newBase(t)
				err := RunChunks(context.Background(), base, specs, workers, nil, nil, func(ChunkSpec, *ChunkResult) error {
					return errCommit
				})
				if !errors.Is(err, errCommit) {
					t.Fatalf("RunChunks returned %v, want the commit error", err)
				}
				assertNoneParked(t, base)
			})

			t.Run(name+"/ctx-cancel", func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				base := newBase(t)
				err := RunChunks(ctx, base, specs, workers, nil, nil, func(ChunkSpec, *ChunkResult) error {
					cancel()
					return nil
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("RunChunks returned %v, want context.Canceled", err)
				}
				assertNoneParked(t, base)
			})

			t.Run(name+"/stop", func(t *testing.T) {
				var mu sync.Mutex
				seen := make(map[int]int)
				stop := make(chan struct{})
				err := RunChunks(context.Background(), newBase(t), specs, workers, stop, nil, func(cs ChunkSpec, _ *ChunkResult) error {
					mu.Lock()
					defer mu.Unlock()
					if len(seen) == 0 {
						close(stop)
					}
					seen[cs.Index]++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				// Chunks are handed out in index order and every one handed
				// out commits, so the committed set is a prefix of the plan.
				// The first commit closes stop under mu, so each worker
				// commits at most the one chunk it was running then.
				if len(seen) > workers {
					t.Fatalf("%d chunks committed after stop closed on the first, want at most %d", len(seen), workers)
				}
				for i := 0; i < len(seen); i++ {
					if seen[i] != 1 {
						t.Fatalf("chunk %d committed %d times; committed set %v is not a prefix of the plan", i, seen[i], seen)
					}
				}
			})
		}
	}
}
