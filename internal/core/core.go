// Package core is the public face of the reproduction: one call per paper
// experiment. It wires the benchmark designs through placement, the
// SLAAC-1V testbed, the SEU injector, the scrubbing fault manager, the
// radiation environments, the BIST suite, and the mitigation tools, and
// returns the rows/series each of the paper's tables and figures reports.
package core

import (
	"fmt"
	"time"

	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/halflatch"
	"repro/internal/netlist"
	"repro/internal/payload"
	"repro/internal/place"
	"repro/internal/radiation"
	"repro/internal/scrub"
	"repro/internal/seu"
	"repro/internal/tmr"
)

// Config selects the experiment scale.
type Config struct {
	// Geom is the device geometry experiments run on. The full XQVR1000
	// geometry works but makes exhaustive sweeps long; the default
	// experiment geometry keeps campaigns in seconds-to-minutes.
	Geom device.Geometry
	// Seed drives all randomness (stimulus, sampling, strikes).
	Seed int64
	// Sample is the injection sampling fraction (1 = exhaustive).
	Sample float64
	// MaxBits caps injections per design (0 = no cap).
	MaxBits int64
	// Workers is the injection-campaign parallelism: the number of board
	// replicas fault-injection experiments run on concurrently. Results
	// are deterministic at any value. 0 means GOMAXPROCS.
	Workers int
	// NoTriage disables the static cone-of-influence triage that injection
	// campaigns use to skip provably-inert configuration bits. The zero
	// value keeps triage on; reports are byte-identical either way.
	NoTriage bool
	// NoFastSim disables the lock-step convergence early exit. The zero
	// value keeps it on; reports are byte-identical either way.
	NoFastSim bool
	// Kernel selects the production vector path (seu.KernelVector, the
	// zero value) or the scalar sweep oracle (seu.KernelSweep). Reports
	// are byte-identical at either.
	Kernel seu.Kernel
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{Geom: device.Small(), Seed: 1, Sample: 1.0}
}

// Build places a catalogued design on the configured geometry.
func Build(cfg Config, name string) (*place.Placed, error) {
	spec, err := designs.ByName(name)
	if err != nil {
		return nil, err
	}
	return place.Place(spec.Build(), cfg.Geom)
}

// BuildCircuit places an arbitrary netlist.
func BuildCircuit(cfg Config, c *netlist.Circuit) (*place.Placed, error) {
	return place.Place(c, cfg.Geom)
}

// Testbed instantiates the SLAAC-1V harness for a placed design.
func Testbed(cfg Config, p *place.Placed) (*board.SLAAC1V, error) {
	return board.New(p, cfg.Seed)
}

// Sensitivity runs one injection campaign for a catalogued design.
func Sensitivity(cfg Config, name string, classifyPersistence bool) (*seu.Report, error) {
	p, err := Build(cfg, name)
	if err != nil {
		return nil, err
	}
	bd, err := Testbed(cfg, p)
	if err != nil {
		return nil, err
	}
	return seu.Run(bd, cfg.CampaignOptions(classifyPersistence))
}

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Design         string
	Slices         int
	UtilizationPct float64
	Injections     int64
	Failures       int64
	SensitivityPct float64
	NormalizedPct  float64
}

func (r TableIRow) String() string {
	return fmt.Sprintf("%-16s %6d (%5.1f%%) %9d %8d %7.2f%% %7.1f%%",
		r.Design, r.Slices, r.UtilizationPct, r.Injections, r.Failures,
		r.SensitivityPct, r.NormalizedPct)
}

// TableI reproduces the paper's Table I: SEU sensitivity for the LFSR,
// VMULT, and MULT design families.
func TableI(cfg Config) ([]TableIRow, error) {
	var rows []TableIRow
	for _, spec := range designs.Catalog() {
		if !inTables(spec, 1) {
			continue
		}
		rep, err := Sensitivity(cfg, spec.Name, false)
		if err != nil {
			return nil, fmt.Errorf("core: Table I %s: %w", spec.Name, err)
		}
		rows = append(rows, TableIRow{
			Design:         spec.Name,
			Slices:         rep.SlicesUsed,
			UtilizationPct: 100 * float64(rep.SlicesUsed) / float64(rep.Geom.Slices()),
			Injections:     rep.Injections,
			Failures:       rep.Failures,
			SensitivityPct: 100 * rep.Sensitivity(),
			NormalizedPct:  100 * rep.NormalizedSensitivity(),
		})
	}
	return rows, nil
}

// TableIIRow is one row of the paper's Table II.
type TableIIRow struct {
	Design         string
	Slices         int
	SensitivityPct float64
	PersistencePct float64
}

func (r TableIIRow) String() string {
	return fmt.Sprintf("%-16s %6d %7.2f%% %7.1f%%",
		r.Design, r.Slices, r.SensitivityPct, r.PersistencePct)
}

// TableII reproduces the paper's Table II: error persistence per design.
func TableII(cfg Config) ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, spec := range designs.Catalog() {
		if !inTables(spec, 2) {
			continue
		}
		rep, err := Sensitivity(cfg, spec.Name, true)
		if err != nil {
			return nil, fmt.Errorf("core: Table II %s: %w", spec.Name, err)
		}
		rows = append(rows, TableIIRow{
			Design:         spec.Name,
			Slices:         rep.SlicesUsed,
			SensitivityPct: 100 * rep.Sensitivity(),
			PersistencePct: 100 * rep.PersistenceRatio(),
		})
	}
	return rows, nil
}

func inTables(spec designs.Spec, table int) bool {
	for _, t := range spec.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// Fig7 reproduces the paper's Fig. 7: upset a persistent state bit of the
// counter/adder design and trace expected vs actual output around the
// upset and its (ineffective) repair.
func Fig7(cfg Config) ([]seu.TracePoint, device.BitAddr, error) {
	p, err := Build(cfg, "36 Counter/Adder")
	if err != nil {
		return nil, 0, err
	}
	bd, err := Testbed(cfg, p)
	if err != nil {
		return nil, 0, err
	}
	// Locate a persistent bit with a short sampled campaign (the fixed
	// sample and uncapped sweep are part of the figure's definition, so
	// cfg's Sample/MaxBits deliberately do not apply).
	opts := cfg.CampaignOptions(true)
	opts.Sample = 0.2
	opts.MaxBits = 0
	rep, err := seu.Run(bd, opts)
	if err != nil {
		return nil, 0, err
	}
	var target device.BitAddr = -1
	for _, bit := range rep.SensitiveBits {
		if bit.Persistent {
			target = bit.Addr
			break
		}
	}
	if target < 0 {
		return nil, 0, fmt.Errorf("core: no persistent bit found in counter/adder")
	}
	bd.ResetBoth()
	// The paper's trace shows the upset near cycle 502; we centre the
	// window the same way at reduced scale.
	tr, err := seu.Trace(bd, target, 20, 20, 60)
	return tr, target, err
}

// BeamValidation reproduces the paper's accelerator validation (§III-B):
// an exhaustive sensitivity map followed by a simulated proton-beam run,
// reporting the correlation between beam-induced output errors and the
// simulator's predictions (paper: 97.6 %).
func BeamValidation(cfg Config, name string, observations int) (*radiation.BeamReport, *seu.Report, error) {
	p, err := Build(cfg, name)
	if err != nil {
		return nil, nil, err
	}
	bd, err := Testbed(cfg, p)
	if err != nil {
		return nil, nil, err
	}
	// The sensitivity map must stay uncapped: MaxBits would truncate the
	// address range the beam correlation is checked against.
	opts := cfg.CampaignOptions(false)
	opts.MaxBits = 0
	simRep, err := seu.Run(bd, opts)
	if err != nil {
		return nil, nil, err
	}
	var addrs []device.BitAddr
	for _, b := range simRep.SensitiveBits {
		addrs = append(addrs, b.Addr)
	}
	src := radiation.BeamForObservation(500*time.Millisecond, cfg.Seed+100)
	bopts := radiation.DefaultBeamOptions()
	if observations > 0 {
		bopts.Observations = observations
	}
	beamRep, err := radiation.RunBeam(bd, src, radiation.SensitiveSet(addrs), bopts)
	return beamRep, simRep, err
}

// ScrubReport carries the Fig. 4 numbers.
type ScrubReport struct {
	// ScanCycle is one board's (three devices') no-error readback cycle —
	// the paper's ~180 ms for three XQVR1000s at full geometry.
	ScanCycle time.Duration
	// RepairTime is the partial-reconfiguration cost of one frame repair.
	RepairTime time.Duration
	// FrameBytes is the repair granularity (156 bytes on the XQVR1000).
	FrameBytes int
	Detections []scrub.Detection
}

// ScrubDemo builds a three-device board running a catalogued design,
// injects an artificial SEU, and exercises the detect/repair loop.
func ScrubDemo(cfg Config, name string) (*ScrubReport, error) {
	p, err := Build(cfg, name)
	if err != nil {
		return nil, err
	}
	var ports []*fpga.Port
	var goldens []*bitstream.Memory
	bs := p.Bitstream()
	for i := 0; i < 3; i++ {
		f := fpga.New(cfg.Geom)
		if err := f.FullConfigure(bs); err != nil {
			return nil, err
		}
		ports = append(ports, fpga.NewPort(f))
		goldens = append(goldens, f.ConfigMemory().Clone())
	}
	mgr, err := scrub.New(ports, goldens, nil)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{
		ScanCycle:  mgr.ScanCycleTime(),
		RepairTime: fpga.DefaultFrameWriteTime,
		FrameBytes: cfg.Geom.FrameBytes(),
	}
	if err := mgr.InsertArtificialSEU(1, 7, 33); err != nil {
		return nil, err
	}
	det, err := mgr.ScanOnce()
	if err != nil {
		return nil, err
	}
	rep.Detections = det
	return rep, nil
}

// HalfLatchReport carries the §III-C / Fig. 14 numbers.
type HalfLatchReport struct {
	Census          halflatch.Census
	Mitigated       int
	ErrorsBefore    int
	ErrorsAfter     int
	ResistanceRatio float64
}

// HalfLatchStudy runs the RadDRC experiment: census, mitigation, and a
// half-latch-only beam before and after (the paper measured ~100x).
func HalfLatchStudy(cfg Config, name string, observations int) (*HalfLatchReport, error) {
	p, err := Build(cfg, name)
	if err != nil {
		return nil, err
	}
	census, err := halflatch.Analyze(p)
	if err != nil {
		return nil, err
	}
	mitigated, n, err := halflatch.RadDRC(p)
	if err != nil {
		return nil, err
	}
	xs := radiation.CrossSection{HalfLatchWeight: 1}
	run := func(pl *place.Placed) (int, error) {
		bd, err := board.New(pl, cfg.Seed)
		if err != nil {
			return 0, err
		}
		src := radiation.NewSource(2, xs, cfg.Seed+7)
		rep, err := radiation.RunBeam(bd, src, nil, radiation.BeamOptions{
			Observations:         observations,
			Window:               500 * time.Millisecond,
			CyclesPerObservation: 20,
			ResyncCycles:         10,
		})
		if err != nil {
			return 0, err
		}
		return rep.OutputErrors, nil
	}
	before, err := run(p)
	if err != nil {
		return nil, err
	}
	after, err := run(mitigated)
	if err != nil {
		return nil, err
	}
	rep := &HalfLatchReport{Census: census, Mitigated: n, ErrorsBefore: before, ErrorsAfter: after}
	if after == 0 {
		rep.ResistanceRatio = float64(before) // lower bound: no failures at all
	} else {
		rep.ResistanceRatio = float64(before) / float64(after)
	}
	return rep, nil
}

// Mission runs the payload availability experiment.
func Mission(cfg Config, name string, duration time.Duration, flares []payload.FlareWindow) (*payload.MissionReport, error) {
	p, err := Build(cfg, name)
	if err != nil {
		return nil, err
	}
	sys, err := payload.New(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return sys.RunMission(payload.MissionOptions{Duration: duration, Flares: flares, Seed: cfg.Seed})
}

// SelectiveTMRReport carries the selective-mitigation pipeline results: the
// paper's §III-A endpoint, where the correlation table drives TMR of only
// the sensitive cross-section.
type SelectiveTMRReport struct {
	Plain     *seu.Report
	Selective *seu.Report
	// ProtectedNodes / TotalNodes account the area targeting.
	ProtectedNodes int
	TotalNodes     int
	// Slices before/after quantify the area cost.
	PlainSlices     int
	SelectiveSlices int
}

// SelectiveTMRStudy runs the full §III-A mitigation pipeline on a
// catalogued design: sensitivity campaign -> correlation -> sensitive
// cross-section -> selective TMR of exactly those nodes -> re-campaign.
func SelectiveTMRStudy(cfg Config, name string) (*SelectiveTMRReport, error) {
	spec, err := designs.ByName(name)
	if err != nil {
		return nil, err
	}
	circuit := spec.Build()
	p, err := place.Place(circuit, cfg.Geom)
	if err != nil {
		return nil, err
	}
	bd, err := board.New(p, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts := cfg.CampaignOptions(false)
	plain, err := seu.Run(bd, opts)
	if err != nil {
		return nil, err
	}
	protect := seu.SensitiveNodes(p, plain)
	hardenedCircuit, err := tmr.Selective(circuit, protect)
	if err != nil {
		return nil, err
	}
	p2, err := place.Place(hardenedCircuit, cfg.Geom)
	if err != nil {
		return nil, err
	}
	bd2, err := board.New(p2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	hardened, err := seu.Run(bd2, opts)
	if err != nil {
		return nil, err
	}
	rep := &SelectiveTMRReport{
		Plain: plain, Selective: hardened,
		PlainSlices: p.SlicesUsed(), SelectiveSlices: p2.SlicesUsed(),
	}
	rep.ProtectedNodes, rep.TotalNodes = tmr.ProtectedCount(circuit, protect)
	return rep, nil
}
