package mission

import (
	"reflect"
	"testing"

	"repro/internal/board"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
)

// TestBuildModelMatchesBoardPath checks that the model built from one
// configured device equals, field for field, the model derived from a full
// testbed's golden device and its comparator nets.
func TestBuildModelMatchesBoardPath(t *testing.T) {
	for _, tc := range []struct {
		design string
		geom   device.Geometry
	}{{"LFSR 72", device.Small()}, {"MULT 12", device.Tiny()}} {
		got, err := BuildModel(tc.design, tc.geom, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := designs.ByName(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		placed, err := place.Place(spec.Build(), tc.geom)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := board.New(placed, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newModel(tc.design, placed, bd.Golden, bd.OutputNetIDs(), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s on %s: BuildModel differs from the board.New model", tc.design, tc.geom)
		}
		if got.ProtectedCount == 0 || got.TotalSensBits == 0 || got.HalfLatchSites == 0 {
			t.Errorf("%s on %s: degenerate model: %d protected, %d sensitive bits, %d half-latch sites",
				tc.design, tc.geom, got.ProtectedCount, got.TotalSensBits, got.HalfLatchSites)
		}
	}
}

func BenchmarkBuildModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildModel("LFSR 72", device.Small(), 0.9); err != nil {
			b.Fatal(err)
		}
	}
}
