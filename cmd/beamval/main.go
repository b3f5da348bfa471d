// Command beamval reproduces the paper's accelerator validation (§III-B,
// Figs. 11-12): it builds a design's exhaustive SEU sensitivity map on the
// simulated SLAAC-1V, then runs the design in a simulated proton beam tuned
// to ~1 upset per 0.5 s observation, and reports the correlation between
// beam-induced output errors and the simulator's predictions. The paper
// measured 97.6 % agreement.
//
// Example:
//
//	beamval -design "LFSR 18" -obs 500 -geom tiny
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	var (
		design = flag.String("design", "LFSR 18", "catalogued design under test")
		obs    = flag.Int("obs", 400, "number of 0.5 s beam observations")
		geom   = flag.String("geom", "tiny", "device geometry: tiny|small|xqvr1000")
		sample = flag.Float64("sample", 1.0, "sensitivity-map sampling (1 = exhaustive, as validation requires)")
		seed   = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	g, err := core.ParseGeometry(*geom)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beamval:", err)
		os.Exit(2)
	}
	cfg := core.Config{Geom: g, Seed: *seed, Sample: *sample}

	fmt.Printf("building sensitivity map for %q on %s ...\n", *design, g)
	beamRep, simRep, err := core.BeamValidation(cfg, *design, *obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beamval:", err)
		os.Exit(1)
	}
	fmt.Printf("simulator: %s\n", simRep)
	fmt.Printf("%s\n", beamRep)
	fmt.Printf("correlation: %.1f%%   (paper: 97.6%%)\n", 100*beamRep.Correlation())
}
