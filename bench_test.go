// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
// Each benchmark regenerates its experiment's rows/series and reports them
// as benchmark metrics; EXPERIMENTS.md records paper-vs-measured.
//
// Run:
//
//	go test -bench=. -benchmem
//
// The campaigns sample the configuration space so the full suite stays in
// minutes; the cmd/ tools run the same experiments exhaustively.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bist"
	"repro/internal/bitstream"
	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/payload"
	"repro/internal/place"
	"repro/internal/scrub"
	"repro/internal/seu"
	"repro/internal/tmr"
)

// benchCfg is the shared experiment scale: catalog designs on the Small
// geometry with sampled injection.
func benchCfg() core.Config {
	return core.Config{Geom: device.Small(), Seed: 1, Sample: 0.02}
}

// --- Table I: SEU sensitivity per design ------------------------------------

func BenchmarkTableI(b *testing.B) {
	for _, spec := range designs.Catalog() {
		spec := spec
		if !hasTable(spec, 1) {
			continue
		}
		b.Run(sanitize(spec.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Sensitivity(benchCfg(), spec.Name, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.SlicesUsed), "slices")
				b.ReportMetric(100*rep.Sensitivity(), "sens%")
				b.ReportMetric(100*rep.NormalizedSensitivity(), "norm%")
				b.ReportMetric(float64(rep.Injections), "injections")
			}
		})
	}
}

// --- Table II: error persistence per design ---------------------------------

func BenchmarkTableII(b *testing.B) {
	for _, spec := range designs.Catalog() {
		spec := spec
		if !hasTable(spec, 2) {
			continue
		}
		b.Run(sanitize(spec.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Sensitivity(benchCfg(), spec.Name, true)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*rep.Sensitivity(), "sens%")
				b.ReportMetric(100*rep.PersistenceRatio(), "persist%")
			}
		})
	}
}

// --- Fig. 4: on-orbit scan cycle (180 ms for three XQVR1000s) ----------------

func BenchmarkFig4_ScrubCycle(b *testing.B) {
	g := device.XQVR1000()
	var ports []*fpga.Port
	var goldens []*bitstream.Memory
	for i := 0; i < 3; i++ {
		f := fpga.New(g)
		bs := fpga.NewConfigBuilder(g).FullBitstream()
		if err := f.FullConfigure(bs); err != nil {
			b.Fatal(err)
		}
		ports = append(ports, fpga.NewPort(f))
		goldens = append(goldens, f.ConfigMemory().Clone())
	}
	mgr, err := scrub.New(ports, goldens, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.ScanOnce(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mgr.ScanCycleTime().Milliseconds()), "virtual-ms/scan")
	b.ReportMetric(float64(g.FrameBytes()), "frame-bytes")
}

// --- Fig. 5: wire BIST via repeated partial reconfiguration ------------------

func BenchmarkFig5_WireBIST(b *testing.B) {
	g := device.Tiny()
	for i := 0; i < b.N; i++ {
		f := fpga.New(g)
		if err := f.FullConfigure(fpga.NewConfigBuilder(g).FullBitstream()); err != nil {
			b.Fatal(err)
		}
		port := fpga.NewPort(f)
		f.SetStuck(device.Segment{R: 3, C: 4, S: 6}, true)
		rep, err := bist.WireTest(f, port)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Faults) == 0 {
			b.Fatal("injected fault not isolated")
		}
		b.ReportMetric(float64(rep.Reconfigurations), "reconfigs")
		b.ReportMetric(float64(rep.Readbacks), "readbacks")
		b.ReportMetric(float64(rep.WiresTested), "wires")
	}
}

// --- Fig. 7: persistent error trace ------------------------------------------

func BenchmarkFig7_PersistentTrace(b *testing.B) {
	cfg := benchCfg()
	cfg.Sample = 0.05
	for i := 0; i < b.N; i++ {
		tr, _, err := core.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		diverged := 0
		for _, pt := range tr[40:] {
			if !pt.Match {
				diverged++
			}
		}
		b.ReportMetric(float64(diverged)/float64(len(tr)-40)*100, "post-repair-diverged%")
	}
}

// --- Fig. 8: the injection loop (214 us/bit; 5.8M bits in ~20 min) -----------

// BenchmarkFig8_InjectionLoop times a 2000-bit MULT 12 window per kernel
// variant. Each iteration is a whole campaign, so it pays the compile and
// the pre-plan as every real campaign does; only place-and-route is hoisted
// out of the loop. A profiling entry point, not a gate.
func BenchmarkFig8_InjectionLoop(b *testing.B) {
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		b.Fatal(err)
	}
	p, err := place.Place(spec.Build(), device.Small())
	if err != nil {
		b.Fatal(err)
	}
	// Sequential vs sharded vs triage-off vs fastsim-off throughput on the
	// same campaign: the reports are identical by construction, only
	// wall-us/bit moves.
	type variant struct {
		name    string
		workers int
		triage  bool
		fastsim bool
	}
	variants := []variant{
		{"workers-1", 1, true, true},
		{"workers-1-triage-off", 1, false, true},
		{"workers-1-fastsim-off", 1, true, false},
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		variants = append(variants,
			variant{fmt.Sprintf("workers-%d", n), n, true, true},
			variant{fmt.Sprintf("workers-%d-triage-off", n), n, false, true},
			variant{fmt.Sprintf("workers-%d-fastsim-off", n), n, true, false})
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			bd, err := board.New(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			opts := seu.DefaultOptions()
			opts.ClassifyPersistence = false
			opts.Seed = 1
			opts.Workers = v.workers
			opts.MaxBits = 2000
			opts.Sample = 1
			opts.Triage = v.triage
			opts.FastSim = v.fastsim
			b.ResetTimer()
			var injections, skipped, cyclesRun, cyclesSkipped int64
			for i := 0; i < b.N; i++ {
				rep, err := seu.Run(bd, opts)
				if err != nil {
					b.Fatal(err)
				}
				injections += rep.Injections
				skipped += rep.TriageSkipped
				cyclesRun += rep.CyclesSimulated
				cyclesSkipped += rep.CyclesSkipped
			}
			b.StopTimer()
			perInj := b.Elapsed() / time.Duration(maxi64(1, injections))
			b.ReportMetric(float64(perInj.Nanoseconds())/1000, "wall-us/bit")
			b.ReportMetric(float64(skipped)/float64(maxi64(1, injections))*100, "triage-skipped%")
			b.ReportMetric(float64(cyclesRun)/float64(maxi64(1, int64(b.N))), "cycles-simulated")
			b.ReportMetric(float64(cyclesSkipped)/float64(maxi64(1, cyclesRun+cyclesSkipped))*100, "early-exit-skipped%")
			b.ReportMetric(214, "virtual-us/bit")
			full := time.Duration(device.XQVR1000().TotalBits()) * board.InjectLoopTime
			b.ReportMetric(full.Minutes(), "virtual-min/5.8Mbit-sweep")
		})
	}
}

// --- Figs. 11-12: beam validation (97.6 % correlation) ------------------------

func BenchmarkFig12_BeamCorrelation(b *testing.B) {
	cfg := core.Config{Geom: device.Tiny(), Seed: 11, Sample: 1}
	for i := 0; i < b.N; i++ {
		beamRep, _, err := core.BeamValidation(cfg, "MULT 12", 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*beamRep.Correlation(), "correlation%")
		b.ReportMetric(float64(beamRep.Strikes), "strikes")
		b.ReportMetric(float64(beamRep.OutputErrors), "output-errors")
	}
}

// --- Figs. 13-14: half-latch mitigation (RadDRC, ~100x) -----------------------

func BenchmarkFig14_HalfLatchRadDRC(b *testing.B) {
	cfg := core.Config{Geom: device.Tiny(), Seed: 1, Sample: 1}
	for i := 0; i < b.N; i++ {
		rep, err := core.HalfLatchStudy(cfg, "LFSR 18", 150)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rep.Census.UsedSites)), "used-halflatches")
		b.ReportMetric(float64(rep.ErrorsBefore), "errors-before")
		b.ReportMetric(float64(rep.ErrorsAfter), "errors-after")
		b.ReportMetric(rep.ResistanceRatio, "resistance-x")
	}
}

// --- §I rates: orbit availability ---------------------------------------------

func BenchmarkOrbit_Availability(b *testing.B) {
	for _, mode := range []struct {
		name   string
		flares []payload.FlareWindow
	}{
		{"Quiet", nil},
		{"Flare", []payload.FlareWindow{{Start: 0, End: 100 * time.Hour}}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Mission(core.Config{Geom: device.Tiny(), Seed: 5, Sample: 1},
					"MULT 12", 100*time.Hour, mode.flares)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Upsets), "upsets/100h")
				b.ReportMetric(rep.Availability*1e6, "availability-ppm")
				b.ReportMetric(float64(rep.MeanDetectionLatency.Milliseconds()), "latency-ms")
			}
		})
	}
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblation_ScrubReadbackSpeed: detection latency is bounded by the
// scan period, which scales with the per-frame readback time — the design
// trade the paper's 180 ms cycle embodies.
func BenchmarkAblation_ScrubReadbackSpeed(b *testing.B) {
	for _, speedup := range []int{1, 4} {
		speedup := speedup
		b.Run(fmt.Sprintf("readback-x%d", speedup), func(b *testing.B) {
			g := device.Small()
			f := fpga.New(g)
			if err := f.FullConfigure(fpga.NewConfigBuilder(g).FullBitstream()); err != nil {
				b.Fatal(err)
			}
			port := fpga.NewPort(f)
			port.FrameReadTime /= time.Duration(speedup)
			mgr, err := scrub.New([]*fpga.Port{port}, []*bitstream.Memory{f.ConfigMemory().Clone()}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := mgr.ScanOnce(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mgr.ScanCycleTime().Microseconds()), "virtual-us/scan")
		})
	}
}

// BenchmarkAblation_TMR: full TMR without placement-domain isolation — the
// voters mask single-copy upsets, but routing shared between copies (long
// lines) limits the gain, the classic domain-crossing caveat.
func BenchmarkAblation_TMR(b *testing.B) {
	c := designs.LFSRCluster("tmr-ablation", 2, 2, 8)
	trip, err := tmr.Triplicate(c)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, circuitIdx int) {
		for i := 0; i < b.N; i++ {
			src := c
			if circuitIdx == 1 {
				src = trip
			}
			p, err := place.Place(src, device.Small())
			if err != nil {
				b.Fatal(err)
			}
			bd, err := board.New(p, 5)
			if err != nil {
				b.Fatal(err)
			}
			opts := seu.DefaultOptions()
			opts.Sample = 0.1
			opts.Seed = 5
			opts.ClassifyPersistence = false
			rep, err := seu.Run(bd, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*rep.Sensitivity(), "sens%")
			b.ReportMetric(float64(rep.SlicesUsed), "slices")
		}
	}
	b.Run("Plain", func(b *testing.B) { run(b, 0) })
	b.Run("TMR", func(b *testing.B) { run(b, 1) })
}

// BenchmarkAblation_SamplingAccuracy: sampled campaigns estimate the
// exhaustive sensitivity; this reports the estimate at two rates so drift
// is visible in CI history.
func BenchmarkAblation_SamplingAccuracy(b *testing.B) {
	for _, sample := range []float64{0.05, 0.5} {
		sample := sample
		b.Run(fmt.Sprintf("sample-%.2f", sample), func(b *testing.B) {
			cfg := core.Config{Geom: device.Tiny(), Seed: 9, Sample: sample}
			for i := 0; i < b.N; i++ {
				rep, err := core.Sensitivity(cfg, "MULT 12", false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*rep.Sensitivity(), "sens%")
			}
		})
	}
}

// BenchmarkAblation_PlacementDensity: route-through cost of packing density
// (the MaxSitesPerCLB knob) — the fabric-level trade DESIGN.md documents.
func BenchmarkAblation_PlacementDensity(b *testing.B) {
	spec, err := designs.ByName("MULT 36")
	if err != nil {
		b.Fatal(err)
	}
	for _, ms := range []int{1, 2} {
		ms := ms
		b.Run(fmt.Sprintf("sites-per-clb-%d", ms), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := place.PlaceOpt(spec.Build(), device.Small(), place.Options{MaxSitesPerCLB: ms})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(p.RouteThroughs), "route-throughs")
				b.ReportMetric(float64(p.LongLinesUsed), "long-lines")
				b.ReportMetric(float64(p.SlicesUsed()), "slices")
			}
		})
	}
}

// BenchmarkAblation_RepairGranularity: frame repair vs full reconfiguration —
// the reason partial reconfiguration matters (§IV-B).
func BenchmarkAblation_RepairGranularity(b *testing.B) {
	frame := fpga.DefaultFrameWriteTime
	full := fpga.DefaultFullConfigTime
	b.ReportMetric(float64(frame.Microseconds()), "frame-repair-us")
	b.ReportMetric(float64(full.Microseconds()), "full-reconfig-us")
	b.ReportMetric(float64(full)/float64(frame), "ratio")
}

// --- helpers -------------------------------------------------------------------

func hasTable(spec designs.Spec, t int) bool {
	for _, x := range spec.Tables {
		if x == t {
			return true
		}
	}
	return false
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case ' ', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
