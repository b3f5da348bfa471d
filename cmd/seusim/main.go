// Command seusim runs the paper's SEU fault-injection experiments: per-design
// sensitivity campaigns (Table I), persistence classification (Table II), and
// the persistent-error trace of Fig. 7.
//
// Examples:
//
//	seusim -table 1 -sample 0.05
//	seusim -table 2
//	seusim -design "LFSR 72" -sample 0.1
//	seusim -design "MULT 12" -json
//	seusim -fig7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/board"
	"repro/internal/core"
)

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}

func main() {
	var (
		table   = flag.Int("table", 0, "reproduce paper table 1 or 2")
		fig7    = flag.Bool("fig7", false, "reproduce the Fig. 7 persistent-error trace")
		jsonOut = flag.Bool("json", false, "emit results as JSON (table and design modes)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	cs := core.RegisterCampaignFlags(flag.CommandLine, core.CampaignSpec{
		Geom: "small", Seed: 1, Sample: 0.05,
	})
	flag.Parse()
	cfg, err := cs.Resolve()
	check(err)
	design := &cs.Design

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			check(err)
			defer f.Close()
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
		}()
	}

	switch {
	case *table == 1:
		rows, err := core.TableI(cfg)
		check(err)
		if *jsonOut {
			emitJSON(rows)
			return
		}
		fmt.Printf("Table I — SEU sensitivity (geometry %s, sample %.3f)\n", cfg.Geom, cfg.Sample)
		fmt.Printf("%-16s %14s %9s %8s %8s %8s\n", "Design", "Slices", "Injects", "Failures", "Sens", "Norm")
		for _, r := range rows {
			fmt.Println(r)
		}
	case *table == 2:
		rows, err := core.TableII(cfg)
		check(err)
		if *jsonOut {
			emitJSON(rows)
			return
		}
		fmt.Printf("Table II — error persistence (geometry %s, sample %.3f)\n", cfg.Geom, cfg.Sample)
		fmt.Printf("%-16s %6s %8s %8s\n", "Design", "Slices", "Sens", "Persist")
		for _, r := range rows {
			fmt.Println(r)
		}
	case *fig7:
		tr, bit, err := core.Fig7(cfg)
		check(err)
		fmt.Printf("Fig. 7 — persistent error trace (upset bit %d, frame %d)\n", bit, bit.Frame(cfg.Geom))
		fmt.Printf("%8s %12s %12s %s\n", "cycle", "expected", "actual", "match")
		for _, pt := range tr {
			mark := ""
			if !pt.Match {
				mark = "  <-- diverged"
			}
			fmt.Printf("%8d %12d %12d %v%s\n", pt.Cycle, pt.Expected, pt.Actual, pt.Match, mark)
		}
	case *design != "":
		rep, err := core.Sensitivity(cfg, *design, true)
		check(err)
		if *jsonOut {
			emitJSON(core.NewCampaignReport(rep, cfg))
			return
		}
		fmt.Println(rep)
		fmt.Printf("triage skipped %d of %d injections without board activity\n",
			rep.TriageSkipped, rep.Injections)
		fmt.Printf("simulated test time %v (%v per injection), wall time %v\n",
			rep.SimulatedTime, board.InjectLoopTime, rep.WallTime)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "seusim:", err)
		os.Exit(1)
	}
}
