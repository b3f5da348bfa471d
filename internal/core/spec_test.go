package core

import (
	"flag"
	"io"
	"testing"

	"repro/internal/seu"
)

// TestResolveKernelSpellings pins the kernel axis of the wire format: the
// empty spelling and "vector" select the production path, "sweep" the
// oracle, and every retired or unknown spelling is an error rather than a
// silent fallback.
func TestResolveKernelSpellings(t *testing.T) {
	for spelling, want := range map[string]seu.Kernel{"": seu.KernelVector, "vector": seu.KernelVector, "sweep": seu.KernelSweep} {
		cfg, err := CampaignSpec{Design: "LFSR 18", Sample: 1, Kernel: spelling}.Resolve()
		if err != nil {
			t.Fatalf("kernel %q: %v", spelling, err)
		}
		if cfg.Kernel != want {
			t.Errorf("kernel %q resolved to %v, want %v", spelling, cfg.Kernel, want)
		}
	}
	for _, spelling := range []string{"auto", "event", "vector-sweep", "Vector"} {
		if _, err := (CampaignSpec{Design: "LFSR 18", Sample: 1, Kernel: spelling}).Resolve(); err == nil {
			t.Errorf("kernel %q: Resolve accepted a retired spelling", spelling)
		}
	}
}

// TestCampaignFlagsRetired checks the flag set no longer offers the retired
// -triage and -fastsim switches, and that -kernel lands in the spec.
func TestCampaignFlagsRetired(t *testing.T) {
	for _, retired := range []string{"-triage=false", "-fastsim=false"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterCampaignFlags(fs, CampaignSpec{})
		if err := fs.Parse([]string{retired}); err == nil {
			t.Errorf("%s: flag still accepted", retired)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	spec := RegisterCampaignFlags(fs, CampaignSpec{Geom: "small"})
	if err := fs.Parse([]string{"-design", "MULT 12", "-kernel", "sweep"}); err != nil {
		t.Fatal(err)
	}
	if spec.Design != "MULT 12" || spec.Geom != "small" || spec.Kernel != "sweep" {
		t.Fatalf("parsed spec %+v", *spec)
	}
}
