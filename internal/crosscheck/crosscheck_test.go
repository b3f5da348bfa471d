package crosscheck

import (
	"testing"

	"repro/internal/device"
	"repro/internal/seu"
)

// TestConformanceSlice is the CI-sized slice of the conformance suite: a
// handful of seeded designs (mixing netlist and raw-fabric flavours) swept
// over the full 6-point lattice plus all metamorphic invariants. The full
// suite is `go run ./cmd/crosscheck -designs 200 -seed 1`.
func TestConformanceSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance slice is not short")
	}
	n := 6 // designs 0..5 include two raw-fabric designs (i%3==2)
	err := CheckSuite(device.Tiny(), n, 1, 2, func(r Result) {
		t.Logf("ok %s points=%d injections=%d failures=%d persistent=%d raw=%v",
			r.Design, r.Points, r.Injections, r.Failures, r.Persistent, r.Raw)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDemotedLaneStress sweeps the demoted-lane stress set — designs built
// so that sampled injections concentrate on the vector kernel's carries
// (LUT-mode flips creating live SRL16s, mapped BRAM port fields) and its
// BRAM word overlays (content behind a read-only port) — over the complete
// 6-point lattice. Every point must produce a byte-identical report; a
// divergence here is a carry-lane or BRAM-overlay exactness bug.
func TestDemotedLaneStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep is not short")
	}
	g := device.Tiny()
	ds, err := StressDesigns(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(3)
	// A denser sample than the rotating suite so the demotion classes are
	// well represented among the sampled bits.
	p.Sample = 0.02
	for _, d := range ds {
		res, err := CheckDesign(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures == 0 {
			t.Fatalf("%s: stress design produced no failures — it is not stressing the demoted path", d.Name)
		}
		t.Logf("ok %s points=%d injections=%d failures=%d persistent=%d",
			res.Design, res.Points, res.Injections, res.Failures, res.Persistent)
	}
}

// TestGenerateDeterministic pins the generator's pure-function-of-seed
// contract: same (geometry, seed, index) must produce the same design
// (name and configuration memory), different indices different designs.
func TestGenerateDeterministic(t *testing.T) {
	g := device.Tiny()
	for i := 0; i < 4; i++ {
		a, err := Generate(g, 7, i)
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		b, err := Generate(g, 7, i)
		if err != nil {
			t.Fatalf("design %d (again): %v", i, err)
		}
		if a.Name != b.Name {
			t.Fatalf("design %d: names differ: %q vs %q", i, a.Name, b.Name)
		}
		if !a.Placed.Memory.Equal(b.Placed.Memory) {
			t.Fatalf("design %d: regenerated configuration differs", i)
		}
		if (i%3 == 2) != a.Raw {
			t.Fatalf("design %d: Raw=%v, want %v", i, a.Raw, i%3 == 2)
		}
	}
	a, _ := Generate(g, 7, 0)
	b, _ := Generate(g, 8, 0)
	if a.Placed.Memory.Equal(b.Placed.Memory) {
		t.Fatal("different seeds produced identical configurations")
	}
}

// TestLatticeShape pins the lattice to {oracle, production} × the worker
// axis, with the reference point on it.
func TestLatticeShape(t *testing.T) {
	pts := Lattice()
	if len(pts) != 2*len(workerAxis) {
		t.Fatalf("lattice has %d points, want %d", len(pts), 2*len(workerAxis))
	}
	seen := make(map[Point]bool)
	for _, pt := range pts {
		if seen[pt] {
			t.Fatalf("duplicate lattice point %s", pt)
		}
		seen[pt] = true
	}
	if !seen[Reference()] {
		t.Fatal("lattice omits the reference point")
	}
	for _, w := range workerAxis {
		if !seen[Point{Production: true, Workers: w}] || !seen[Point{Workers: w}] {
			t.Fatalf("workers=%d: lattice misses the oracle or the production point", w)
		}
	}
	if o := (Params{}).options(Reference()); o.Kernel != seu.KernelSweep || o.Triage || o.FastSim {
		t.Fatalf("reference point is not the oracle: %+v", o)
	}
	if o := (Params{}).options(Point{Production: true, Workers: 1}); o.Kernel != seu.KernelVector || !o.Triage || !o.FastSim {
		t.Fatalf("production point is not the production path: %+v", o)
	}
}
