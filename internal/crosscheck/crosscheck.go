// Package crosscheck is the randomized differential conformance harness:
// seeded random designs (netlist and raw-fabric) run their injection
// campaign at every point of the configuration lattice — {reference oracle,
// production path} × {worker counts} — and every point must produce a
// byte-identical canonical report. A set of metamorphic
// invariants (sample-subset monotonicity, MaxBits prefixing, classification
// independence, inert-bit force-injection, repair restoring full state
// equality) cross-checks the campaign against properties the optimized fast
// paths promise but ordinary unit tests cannot see breaking.
package crosscheck

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/board"
	"repro/internal/seu"
)

// Point is one configuration of the campaign lattice: the production path
// (the vector kernel with triage and lock-step early exit on) or the
// reference oracle (the scalar sweep kernel with both off), at a worker
// count.
type Point struct {
	Production bool
	Workers    int
}

func (pt Point) String() string {
	path := "oracle"
	if pt.Production {
		path = "production"
	}
	return fmt.Sprintf("%s workers=%d", path, pt.Workers)
}

// workerAxis deliberately includes a count (13) large enough that the
// campaign's minimum-work-per-worker clamp engages on small designs.
var workerAxis = []int{1, 4, 13}

// Reference is the lattice origin every other point is compared against:
// the oracle, sequential.
func Reference() Point {
	return Point{Workers: 1}
}

// Lattice enumerates the configuration lattice (6 points). It includes the
// reference point itself, so a sweep also re-checks run-to-run
// reproducibility of the oracle.
func Lattice() []Point {
	var pts []Point
	for _, prod := range []bool{false, true} {
		for _, w := range workerAxis {
			pts = append(pts, Point{Production: prod, Workers: w})
		}
	}
	return pts
}

// Params are the campaign parameters shared by every lattice point of one
// design's sweep.
type Params struct {
	ObserveCycles int
	PersistWindow int
	CleanRun      int
	// Sample keeps campaigns small while spreading injections over the
	// whole address space. MaxBits stays 0 here — a cap takes the
	// ascending-address prefix of the selected set, which would starve the
	// high end of the bitstream; cap semantics have their own invariant.
	Sample  float64
	MaxBits int64
	// Seed drives per-injection sampling and stimulus; BoardSeed seeds the
	// board's (unused-under-ResetCampaignState) base stimulus stream.
	Seed      int64
	BoardSeed int64
}

// DefaultParams derives sweep parameters from a harness seed.
func DefaultParams(seed int64) Params {
	return Params{
		ObserveCycles: 12,
		PersistWindow: 24,
		CleanRun:      4,
		Sample:        0.005,
		MaxBits:       0,
		Seed:          mix(seed, 0x5eed),
		BoardSeed:     mix(seed, 0xb0a2d),
	}
}

func (p Params) options(pt Point) seu.Options {
	kernel := seu.KernelSweep
	if pt.Production {
		kernel = seu.KernelVector
	}
	return seu.Options{
		ObserveCycles:       p.ObserveCycles,
		PersistWindow:       p.PersistWindow,
		CleanRun:            p.CleanRun,
		Sample:              p.Sample,
		MaxBits:             p.MaxBits,
		Seed:                p.Seed,
		Workers:             pt.Workers,
		ClassifyPersistence: true,
		Triage:              pt.Production,
		FastSim:             pt.Production,
		Kernel:              kernel,
	}
}

// runPoint runs one campaign on a freshly configured board.
func runPoint(d Design, p Params, pt Point) (*seu.Report, error) {
	bd, err := board.New(d.Placed, p.BoardSeed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	rep, err := seu.Run(bd, p.options(pt))
	if err != nil {
		return nil, fmt.Errorf("%s at (%s): %w", d.Name, pt, err)
	}
	return rep, nil
}

// canonicalBit is the deterministic projection of a seu.BitRecord.
type canonicalBit struct {
	Addr            int64  `json:"addr"`
	Kind            string `json:"kind"`
	Persistent      bool   `json:"persistent"`
	FirstErrorCycle int    `json:"first_error_cycle"`
	FailedOutputs   []int  `json:"failed_outputs"`
}

// canonicalReport is the deterministic projection of a seu.Report: every
// field the campaign promises is invariant across the lattice, and nothing
// else (WallTime, TriageSkipped, CyclesSimulated/Skipped are diagnostics
// that legitimately vary).
type canonicalReport struct {
	Design           string         `json:"design"`
	Geom             string         `json:"geom"`
	SlicesUsed       int            `json:"slices_used"`
	Injections       int64          `json:"injections"`
	Failures         int64          `json:"failures"`
	Persistent       int64          `json:"persistent"`
	InjectionsByKind seu.KindCounts `json:"injections_by_kind"`
	FailuresByKind   seu.KindCounts `json:"failures_by_kind"`
	SimulatedTimeNS  int64          `json:"simulated_time_ns"`
	Bits             []canonicalBit `json:"bits"`
}

// canonicalBytes serializes the invariant projection of a report. Two
// campaigns agree iff their canonical bytes are equal.
func canonicalBytes(rep *seu.Report) ([]byte, error) {
	c := canonicalReport{
		Design:           rep.Design,
		Geom:             rep.Geom.String(),
		SlicesUsed:       rep.SlicesUsed,
		Injections:       rep.Injections,
		Failures:         rep.Failures,
		Persistent:       rep.Persistent,
		InjectionsByKind: rep.InjectionsByKind,
		FailuresByKind:   rep.FailuresByKind,
		SimulatedTimeNS:  rep.SimulatedTime.Nanoseconds(),
		Bits:             make([]canonicalBit, 0, len(rep.SensitiveBits)),
	}
	for _, b := range rep.SensitiveBits {
		c.Bits = append(c.Bits, canonicalBit{
			Addr:            int64(b.Addr),
			Kind:            b.Kind.String(),
			Persistent:      b.Persistent,
			FirstErrorCycle: b.FirstErrorCycle,
			FailedOutputs:   b.FailedOutputs,
		})
	}
	return json.Marshal(&c)
}

// Result summarizes one design's completed conformance sweep.
type Result struct {
	Design     string
	Raw        bool
	Points     int
	Injections int64
	Failures   int64
	Persistent int64
}

// CheckDesign sweeps one design over the full lattice plus the metamorphic
// invariants, returning a non-nil error describing the first conformance
// violation found.
func CheckDesign(d Design, p Params) (*Result, error) {
	ref, err := runPoint(d, p, Reference())
	if err != nil {
		return nil, err
	}
	if ref.Injections == 0 {
		return nil, fmt.Errorf("%s: reference campaign injected nothing (sample/maxbits too small to conform-test)", d.Name)
	}
	if ref.TriageSkipped != 0 || ref.CyclesSkipped != 0 {
		return nil, fmt.Errorf("%s: reference campaign used a fast path (triage skipped %d, cycles skipped %d)",
			d.Name, ref.TriageSkipped, ref.CyclesSkipped)
	}
	refBytes, err := canonicalBytes(ref)
	if err != nil {
		return nil, err
	}

	pts := Lattice()
	for _, pt := range pts {
		rep, err := runPoint(d, p, pt)
		if err != nil {
			return nil, err
		}
		if !pt.Production && (rep.TriageSkipped != 0 || rep.CyclesSkipped != 0) {
			return nil, fmt.Errorf("%s at (%s): oracle used a fast path (triage skipped %d, cycles skipped %d)",
				d.Name, pt, rep.TriageSkipped, rep.CyclesSkipped)
		}
		got, err := canonicalBytes(rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, refBytes) {
			return nil, fmt.Errorf("%s at (%s): report diverges from reference:\n%s",
				d.Name, pt, diffHint(refBytes, got))
		}
	}

	if err := checkInvariants(d, p, ref); err != nil {
		return nil, err
	}

	return &Result{
		Design:     d.Name,
		Raw:        d.Raw,
		Points:     len(pts),
		Injections: ref.Injections,
		Failures:   ref.Failures,
		Persistent: ref.Persistent,
	}, nil
}

// diffHint renders the first divergence between two canonical serializations
// with a little surrounding context, enough to see which field broke.
func diffHint(want, got []byte) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	window := func(b []byte) string {
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("  reference (len %d): ...%s...\n  got       (len %d): ...%s...\n  (first divergence at byte %d)",
		len(want), window(want), len(got), window(got), i)
}
