package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/seu"
)

// Golden-report corpus: canonical -json outputs for the paper-table catalog
// designs, pinned under testdata/. The campaign pipeline promises its
// reports are a pure function of (geometry, design, seed, sample, maxbits) —
// independent of worker count and of production path vs oracle — so these
// files only legitimately change when the simulator's semantics change. The
// triage_skipped and cycles_* fields are diagnostics of the production path
// that produced them.
// Regenerate with:
//
//	go test ./cmd/seusim -run Golden -update

var update = flag.Bool("update", false, "rewrite golden JSON files under testdata/")

// goldenCfg samples 1% of the bitstream uniformly (no MaxBits cap, which
// would take an ascending-address prefix and land mostly in pad frames), so
// every design's golden report records real failures and persistence.
func goldenCfg() core.Config {
	return core.Config{Geom: device.Small(), Seed: 1, Sample: 0.01, Workers: 1}
}

func marshalGolden(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// emitJSON uses json.Encoder, which terminates with a newline.
	return append(b, '\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/seusim -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: -json output diverged from the golden corpus.\nIf the simulator's semantics changed intentionally, regenerate with:\n  go test ./cmd/seusim -run Golden -update\ngot:\n%swant:\n%s", name, got, want)
	}
}

func TestGoldenTableI(t *testing.T) {
	rows, err := core.TableI(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.json", marshalGolden(t, rows))
}

func TestGoldenTableII(t *testing.T) {
	rows, err := core.TableII(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.json", marshalGolden(t, rows))
}

func TestGoldenDesignReports(t *testing.T) {
	cfg := goldenCfg()
	for _, name := range []string{"LFSR 72", "MULT 12"} {
		rep, err := core.Sensitivity(cfg, name, true)
		if err != nil {
			t.Fatal(err)
		}
		file := "design-" + sanitize(name) + ".json"
		checkGolden(t, file, marshalGolden(t, core.NewCampaignReport(rep, cfg)))
	}
}

// diagnostics are the report fields that describe how the production path
// got its result rather than the result itself.
var diagnostics = []string{"triage_skipped", "cycles_simulated", "cycles_skipped"}

// TestGoldenDesignReportsMatchOracle reruns each golden design campaign on
// the reference oracle — the scalar sweep kernel, triage and fast-sim off —
// and requires every result field to equal the golden file, so the corpus
// pins results the oracle vouches for, not just what the production path
// happened to emit.
func TestGoldenDesignReportsMatchOracle(t *testing.T) {
	cfg := goldenCfg()
	cfg.Kernel, cfg.NoTriage, cfg.NoFastSim = seu.KernelSweep, true, true
	for _, name := range []string{"LFSR 72", "MULT 12"} {
		rep, err := core.Sensitivity(cfg, name, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TriageSkipped != 0 || rep.CyclesSkipped != 0 {
			t.Fatalf("%s: oracle used a fast path (triage skipped %d, cycles skipped %d)", name, rep.TriageSkipped, rep.CyclesSkipped)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "design-"+sanitize(name)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got := resultFields(t, marshalGolden(t, core.NewCampaignReport(rep, cfg)))
		for k, w := range resultFields(t, want) {
			if g, ok := got[k]; !ok || !bytes.Equal(g, w) {
				t.Errorf("%s: oracle %s = %s, golden %s", name, k, g, w)
			}
			delete(got, k)
		}
		for k := range got {
			t.Errorf("%s: oracle report field %s missing from the golden file", name, k)
		}
	}
}

// resultFields decodes a campaign report into its top-level fields, minus
// the diagnostics.
func resultFields(t *testing.T, b []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range diagnostics {
		delete(m, k)
	}
	return m
}

// TestJSONByteIdentical is the reproducibility acceptance check: the same
// campaign run twice must serialize to byte-identical -json output.
func TestJSONByteIdentical(t *testing.T) {
	cfg := goldenCfg()
	run := func() []byte {
		rep, err := core.Sensitivity(cfg, "LFSR 72", true)
		if err != nil {
			t.Fatal(err)
		}
		return marshalGolden(t, core.NewCampaignReport(rep, cfg))
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs serialized differently:\n%s\nvs\n%s", a, b)
	}
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}
