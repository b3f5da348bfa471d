package campaign

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seu"
)

// metricValue extracts the value of a plain (unlabelled) metric line from a
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(line, name+" "), 10, 64)
		if err != nil {
			t.Fatalf("metric %s: unparseable value in %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s missing from exposition:\n%s", name, text)
	return 0
}

// TestMetricsExportKernelCounters pins the wiring between the seu package's
// process-wide vector-kernel counters and the daemon's /metrics plane: each
// counter must appear with HELP/TYPE metadata and reflect the seu accessors'
// values at render time.
func TestMetricsExportKernelCounters(t *testing.T) {
	sweeps, drains, refills, ffwd := seu.VectorKernelStats()

	var buf bytes.Buffer
	newMetrics(2).WritePrometheus(&buf, map[State]int{})
	text := buf.String()

	for name, want := range map[string]int64{
		"campaignd_vector_sweeps_total":             sweeps,
		"campaignd_vector_worklist_drains_total":    drains,
		"campaignd_vector_lane_refills_total":       refills,
		"campaignd_vector_fastforward_cycles_total": ffwd,
	} {
		for _, meta := range []string{"# HELP " + name + " ", "# TYPE " + name + " counter"} {
			if !strings.Contains(text, meta) {
				t.Errorf("exposition missing %q", meta)
			}
		}
		// Counters are process-wide and monotonic; campaigns run by other
		// tests in this package can only have advanced them since capture.
		if got := metricValue(t, text, name); got < want {
			t.Errorf("%s = %d, want >= %d (captured from seu before render)", name, got, want)
		}
	}
}

// TestMetricsKernelCountersAdvance renders the exposition before and after a
// vector campaign: the settling counter must move between renders — proving
// the exposition reads the live seu counters rather than a snapshot taken at
// daemon construction.
func TestMetricsKernelCountersAdvance(t *testing.T) {
	m := newMetrics(1)
	render := func() string {
		var buf bytes.Buffer
		m.WritePrometheus(&buf, map[State]int{})
		return buf.String()
	}
	sweepsBefore := metricValue(t, render(), "campaignd_vector_sweeps_total")

	spec := core.CampaignSpec{Design: "LFSR 18", Geom: "tiny", Seed: 1,
		Sample: 0.05, Workers: 1, Kernel: "vector"}
	cfg, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(cfg, spec.Design)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := core.Testbed(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seu.Run(bd, cfg.CampaignOptions(true)); err != nil {
		t.Fatal(err)
	}

	// The campaign ran lanes through the event drain, so settling activity
	// must be visible.
	sweepsAfter := metricValue(t, render(), "campaignd_vector_sweeps_total")
	if sweepsAfter <= sweepsBefore {
		t.Fatalf("vector sweeps counter: render saw %d then %d after a vector campaign, want an increase", sweepsBefore, sweepsAfter)
	}
}
