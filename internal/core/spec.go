package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/seu"
)

// ParseGeometry maps the CLI/wire spelling of a device geometry to the
// geometry itself. The empty string means the default experiment geometry
// (small), so job specs may omit the field.
func ParseGeometry(name string) (device.Geometry, error) {
	switch name {
	case "tiny":
		return device.Tiny(), nil
	case "", "small":
		return device.Small(), nil
	case "xqvr1000":
		return device.XQVR1000(), nil
	}
	return device.Geometry{}, fmt.Errorf("core: unknown geometry %q (tiny|small|xqvr1000)", name)
}

// CampaignSpec is the serializable form of one experiment configuration —
// the wire format shared by the CLI flag sets, campaign-service job specs,
// and checkpoint metadata. A spec resolves to a Config with Resolve;
// everything a campaign's outcome depends on is in here, which is what
// makes checkpointed jobs resumable across daemon restarts.
type CampaignSpec struct {
	// Design is the catalogued design name (designs.ByName).
	Design string `json:"design"`
	// Geom is the geometry spelling ParseGeometry accepts ("" = small).
	Geom    string  `json:"geom,omitempty"`
	Seed    int64   `json:"seed"`
	Sample  float64 `json:"sample"`
	MaxBits int64   `json:"max_bits,omitempty"`
	Workers int     `json:"workers"`
	// Kernel is the seu.ParseKernel spelling ("" = vector).
	Kernel string `json:"kernel,omitempty"`
}

// Resolve parses the spec's string fields and returns the Config it
// denotes.
func (s CampaignSpec) Resolve() (Config, error) {
	g, err := ParseGeometry(s.Geom)
	if err != nil {
		return Config{}, err
	}
	k, err := seu.ParseKernel(s.Kernel)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Geom:    g,
		Seed:    s.Seed,
		Sample:  s.Sample,
		MaxBits: s.MaxBits,
		Workers: s.Workers,
		Kernel:  k,
	}, nil
}

// CampaignOptions maps the experiment scale onto injection-campaign
// options — the single place the Config→seu.Options translation lives.
func (cfg Config) CampaignOptions(classifyPersistence bool) seu.Options {
	opts := seu.DefaultOptions()
	opts.Sample = cfg.Sample
	opts.MaxBits = cfg.MaxBits
	opts.Seed = cfg.Seed
	opts.Workers = cfg.Workers
	opts.Triage = !cfg.NoTriage
	opts.FastSim = !cfg.NoFastSim
	opts.Kernel = cfg.Kernel
	opts.ClassifyPersistence = classifyPersistence
	return opts
}
