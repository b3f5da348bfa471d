// Command scrubsim exercises the on-orbit fault detection and correction
// architecture (Fig. 4): single detect/repair demonstrations, scan-cycle
// timing at flight geometry, and full mission availability simulations with
// solar-flare windows.
//
// Examples:
//
//	scrubsim -demo
//	scrubsim -cycle -geom xqvr1000
//	scrubsim -mission 720h -flare 24h:48h
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/payload"
)

func main() {
	var (
		demo    = flag.Bool("demo", false, "inject one artificial SEU and show the detect/repair loop")
		cycle   = flag.Bool("cycle", false, "print the scan-cycle timing for a 3-device board")
		mission = flag.Duration("mission", 0, "run a mission of this duration")
		flares  = flag.String("flare", "", "comma-separated flare windows start:end (e.g. 24h:48h)")
		design  = flag.String("design", "MULT 12", "catalogued design to fly")
		geom    = flag.String("geom", "small", "device geometry: tiny|small|xqvr1000")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	g, err := core.ParseGeometry(*geom)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubsim:", err)
		os.Exit(2)
	}
	cfg := core.Config{Geom: g, Seed: *seed, Sample: 1}

	switch {
	case *cycle:
		rep, err := core.ScrubDemo(cfg, *design)
		check(err)
		fmt.Printf("board of 3 devices (%s)\n", g)
		fmt.Printf("  frame size:          %d bytes\n", rep.FrameBytes)
		fmt.Printf("  scan cycle:          %v   (paper: ~180 ms for 3 XQVR1000s)\n", rep.ScanCycle)
		fmt.Printf("  single-frame repair: %v\n", rep.RepairTime)
	case *demo:
		rep, err := core.ScrubDemo(cfg, *design)
		check(err)
		fmt.Printf("artificial SEU inserted into device 1; scan results:\n")
		for _, d := range rep.Detections {
			fmt.Printf("  %s\n", d)
		}
		fmt.Printf("scan cycle %v, repair %v per frame\n", rep.ScanCycle, rep.RepairTime)
	case *mission > 0:
		var windows []payload.FlareWindow
		if *flares != "" {
			for _, w := range strings.Split(*flares, ",") {
				parts := strings.SplitN(w, ":", 2)
				if len(parts) != 2 {
					fmt.Fprintf(os.Stderr, "bad flare window %q\n", w)
					os.Exit(2)
				}
				start, err := time.ParseDuration(parts[0])
				check(err)
				end, err := time.ParseDuration(parts[1])
				check(err)
				windows = append(windows, payload.FlareWindow{Start: start, End: end})
			}
		}
		rep, err := core.Mission(cfg, *design, *mission, windows)
		check(err)
		fmt.Println(rep)
		fmt.Printf("  scan cycle %v; expected quiet-rate upsets %.1f (paper: 1.2/h for 9 FPGAs)\n",
			rep.ScanCycle, 1.2*rep.Duration.Hours())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubsim:", err)
		os.Exit(1)
	}
}
