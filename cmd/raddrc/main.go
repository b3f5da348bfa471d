// Command raddrc runs the half-latch study of §III-C: a census of the
// half-latch keepers a design depends on, the RadDRC mitigation pass
// (rewriting hidden-keeper constants into scrubbable configuration
// constants), and a before/after beam comparison (the paper measured ~100x
// better failure resistance for mitigated designs).
//
// Example:
//
//	raddrc -design "LFSR 18" -obs 300
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
)

func main() {
	var (
		obs     = flag.Int("obs", 200, "beam observations per run")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	cs := core.RegisterCampaignFlags(flag.CommandLine, core.CampaignSpec{
		Design: "LFSR 18", Geom: "tiny", Seed: 1, Sample: 1,
	})
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "raddrc:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "raddrc:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "raddrc:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "raddrc:", err)
			}
		}()
	}
	cfg, err := cs.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "raddrc:", err)
		os.Exit(2)
	}
	rep, err := core.HalfLatchStudy(cfg, cs.Design, *obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raddrc:", err)
		os.Exit(1)
	}
	fmt.Printf("design %q on %s\n", cs.Design, cfg.Geom)
	fmt.Printf("  %s\n", rep.Census)
	fmt.Printf("  RadDRC mitigated %d half-latch constants\n", rep.Mitigated)
	fmt.Printf("  half-latch beam: %d output errors before, %d after\n", rep.ErrorsBefore, rep.ErrorsAfter)
	if rep.ErrorsAfter == 0 {
		fmt.Printf("  resistance improvement: >= %.0fx (no failures after mitigation; paper: ~100x)\n", rep.ResistanceRatio)
	} else {
		fmt.Printf("  resistance improvement: %.1fx (paper: ~100x)\n", rep.ResistanceRatio)
	}
}
