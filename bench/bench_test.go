package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/seu"
)

// TestSmokeWorkloads runs every workload at smoke scale, untraced and
// traced, against the committed seed-1 smoke digests.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	for _, w := range workloads {
		want, err := expectedDigests("smoke", w.name, 1)
		if err != nil || len(want) == 0 {
			t.Fatalf("%s: no committed smoke digests (%v)", w.name, err)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 1, seconds: 1, scale: "smoke", trace: trace, dir: t.TempDir()}
			res := runOne(time.Now(), w, o, false)
			if !res.Correct {
				t.Fatalf("%s trace=%v: %v", w.name, trace, res.Errors)
			}
			for k, d := range want {
				if res.Digests[k] != d {
					t.Errorf("%s trace=%v: %s digest %s, committed %s", w.name, trace, k, res.Digests[k], d)
				}
			}
			ms, names := res.EndToEnd, driverMetrics.endToEnd
			if trace {
				ms, names = res.PerLayer, driverMetrics.perLayer
			}
			for _, n := range names {
				if _, ok := ms[n]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, n)
				}
			}
		}
	}
}

// TestDenseSmokeDigestsMatchScalarOracle recomputes the dense smoke
// digests on the reference path: the scalar sweep kernel with triage and
// fast simulation off, on one worker.
func TestDenseSmokeDigestsMatchScalarOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scalar oracle")
	}
	want, err := expectedDigests("smoke", "dense-small", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookup("dense-small")
	sw := w.make(&run{ctx: context.Background(), seed: 1, workers: 1}, true).(*sweep)
	ps, err := sw.place(sw.geom, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.Config{Geom: sw.geom, Seed: 1, Sample: sw.sample, Workers: 1,
		NoTriage: true, NoFastSim: true, Kernel: seu.KernelSweep}
	for i, p := range ps {
		it, err := sw.sweepOne(nil, p, sw.keys[i], oracle)
		if err != nil {
			t.Fatal(err)
		}
		d, err := it.digest()
		if err != nil {
			t.Fatal(err)
		}
		if d != want[it.key] {
			t.Errorf("%s: oracle digest %s, committed %s", it.key, d, want[it.key])
		}
	}
}

// TestPaperScenarioMatchesMissionsim pins the benchmark's copy of the
// paper scenario to missionsim's golden report of it.
func TestPaperScenarioMatchesMissionsim(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "cmd", "missionsim", "testdata", "paper-scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mission.Run(paperScenario(1, 2, 48*time.Hour, 5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("paper scenario report differs from missionsim's golden paper-scenario.json")
	}
}

// TestLayerSelf checks the self-time accounting on a hand-built tree:
// concurrent calls count once, and layer self times plus the root's
// unattributed time add up to the root's duration.
func TestLayerSelf(t *testing.T) {
	root := span{ID: 1, Name: "op", Start: 0, End: 100}
	spans := []span{
		{ID: 2, Parent: 1, Name: "campaign.wait", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "fabric.blob_put", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "fabric.blob_put", Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "campaign.report", Start: 90, End: 95},
	}
	got := layerSelf(root, spans)
	want := map[string]int64{"": 15, "campaign": 55, "fabric": 30}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("layer %q self %d, want %d", l, got[l], v)
		}
	}
}
