package seu_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
	"repro/internal/seu"
)

// TestRunContextReportBytesAcrossWorkers pins RunContext's whole report,
// cycle diagnostics included, at workers {1, 2, 3, 13}: each count cuts the
// sweep at different pre-plan entries, so lane batches, carry flushes and
// edge rescans all move. Covered are a full-device catalogue sweep (the
// sample CI's full-device step compares with cmp) and the mix stress
// design, whose vector and carried (LUT-mode and BRAM-port) entries share
// chunks.
func TestRunContextReportBytesAcrossWorkers(t *testing.T) {
	lfsr, err := designs.ByName("LFSR 72")
	if err != nil {
		t.Fatal(err)
	}
	lfsrPlaced, err := place.Place(lfsr.Build(), device.XQVR1000())
	if err != nil {
		t.Fatal(err)
	}
	mix := bramStress(t, device.Small(), 1)[1]
	cases := []struct {
		name   string
		placed *place.Placed
		sample float64
	}{
		{"LFSR 72/xqvr1000", lfsrPlaced, 0.02},
		{"mix/small", mix.Placed, 0.15},
	}
	for _, c := range cases {
		var want []byte
		for _, workers := range []int{1, 2, 3, 13} {
			bd, err := board.New(c.placed, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := seu.DefaultOptions()
			opts.Sample, opts.Seed, opts.Workers = c.sample, 1, workers
			rep, err := seu.Run(bd, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep.WallTime = 0
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				if rep.Failures == 0 || rep.CyclesSkipped == 0 {
					t.Fatalf("%s: campaign has no failures or no skipped cycles: %+v", c.name, rep)
				}
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: report at %d workers differs from 1 worker:\n got %s\nwant %s", c.name, workers, got, want)
			}
		}
	}
}
