package core

import "repro/internal/seu"

// CampaignReport is the machine-readable form of one campaign Report,
// emitted by seusim -json and the campaign service for CI artifacts,
// golden-report regression corpora, and downstream analysis. It carries
// only deterministic fields — wall time is deliberately absent, and the
// per-kind maps marshal in fixed kind order — so re-running the same
// campaign produces byte-identical output.
type CampaignReport struct {
	Design           string         `json:"design"`
	Geometry         string         `json:"geometry"`
	Slices           int            `json:"slices"`
	UtilizationPct   float64        `json:"utilization_pct"`
	Injections       int64          `json:"injections"`
	Failures         int64          `json:"failures"`
	Persistent       int64          `json:"persistent"`
	TriageSkipped    int64          `json:"triage_skipped"`
	SensitivityPct   float64        `json:"sensitivity_pct"`
	NormalizedPct    float64        `json:"normalized_sensitivity_pct"`
	PersistencePct   float64        `json:"persistence_pct"`
	InjectionsByKind seu.KindCounts `json:"injections_by_kind"`
	FailuresByKind   seu.KindCounts `json:"failures_by_kind"`
	SimulatedTimeSec float64        `json:"simulated_time_seconds"`
	Sample           float64        `json:"sample"`
	Seed             int64          `json:"seed"`
	CyclesSimulated  int64          `json:"cycles_simulated"`
	CyclesSkipped    int64          `json:"cycles_skipped"`
}

// NewCampaignReport pairs a campaign's Report with the Config that produced
// it.
func NewCampaignReport(rep *seu.Report, cfg Config) CampaignReport {
	return CampaignReport{
		Design:           rep.Design,
		Geometry:         rep.Geom.String(),
		Slices:           rep.SlicesUsed,
		UtilizationPct:   100 * float64(rep.SlicesUsed) / float64(rep.Geom.Slices()),
		Injections:       rep.Injections,
		Failures:         rep.Failures,
		Persistent:       rep.Persistent,
		TriageSkipped:    rep.TriageSkipped,
		SensitivityPct:   100 * rep.Sensitivity(),
		NormalizedPct:    100 * rep.NormalizedSensitivity(),
		PersistencePct:   100 * rep.PersistenceRatio(),
		InjectionsByKind: rep.InjectionsByKind,
		FailuresByKind:   rep.FailuresByKind,
		SimulatedTimeSec: rep.SimulatedTime.Seconds(),
		Sample:           cfg.Sample,
		Seed:             cfg.Seed,
		CyclesSimulated:  rep.CyclesSimulated,
		CyclesSkipped:    rep.CyclesSkipped,
	}
}
