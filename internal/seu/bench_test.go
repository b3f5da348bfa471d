package seu

import (
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
)

// BenchmarkFig8Vector times the fig8bench workload (MULT 12, small
// geometry, 2000 bits) on the production path — the in-repo twin of
// cmd/fig8bench's workers-1-vector variant, profileable with
// -cpuprofile/-memprofile.
func BenchmarkFig8Vector(b *testing.B) {
	g := device.Small()
	spec, err := designs.ByName("MULT 12")
	if err != nil {
		b.Fatal(err)
	}
	p, err := place.Place(spec.Build(), g)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ClassifyPersistence = false
	opts.Seed = 1
	opts.Workers = 1
	opts.MaxBits = 2000
	opts.Sample = 1
	bd, err := board.New(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(bd, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failures != 58 {
			b.Fatalf("failures = %d, want 58", rep.Failures)
		}
	}
}
