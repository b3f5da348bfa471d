package board_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/board"
	"repro/internal/crosscheck"
	"repro/internal/device"
	"repro/internal/fpga"
)

// TestLockedWordMatchesOracle is the lock-step property test: on random
// netlist designs and the demoted-lane stress designs, a 64-lane batch runs
// with its lanes in mixed phases — overlays still active, repaired at
// staggered steps, retired mid-batch, refilled with fresh injections — and
// after every Step the masked check LockedWord(m) must equal the full-scan
// DivergenceWord oracle on every lane of m, for single-lane masks (lane 0,
// lane 63, a random lane), the full word, the retirable lanes, and random
// masks.
func TestLockedWordMatchesOracle(t *testing.T) {
	g := device.Tiny()
	var ds []crosscheck.Design
	for i := 0; len(ds) < 4; i++ {
		d, err := crosscheck.Generate(g, 18, i)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Raw { // raw suite designs are history-coupled: no lanes
			ds = append(ds, d)
		}
	}
	stress, err := crosscheck.StressDesigns(g, 18)
	if err != nil {
		t.Fatal(err)
	}
	ds = append(ds, stress...)

	var locked, diverged int
	for di, d := range ds {
		l, dv := checkLockedWord(t, d, int64(di+1))
		locked += l
		diverged += dv
	}
	// Both verdicts must occur, or the property held vacuously.
	if locked == 0 || diverged == 0 {
		t.Fatalf("retirable lanes seen locked %d times, diverged %d times: the batch never mixed verdicts", locked, diverged)
	}
}

// checkLockedWord drives one design's batch and compares the masked check
// with the oracle after every Step. It returns how often a retirable lane
// read locked and diverged.
func checkLockedWord(t *testing.T, d crosscheck.Design, seed int64) (locked, diverged int) {
	t.Helper()
	bd, err := board.New(d.Placed, seed)
	if err != nil {
		t.Fatal(err)
	}
	if bd.DUT.HistoryCoupled() {
		t.Fatalf("%s: history-coupled design has no lane path", d.Name)
	}
	g := bd.Geometry()
	rng := rand.New(rand.NewSource(seed))
	pick := func() fpga.VectorDelta {
		for {
			a := device.BitAddr(rng.Int63n(g.TotalBits()))
			if dl, ok := bd.Golden.PlanVectorDelta(a, g.Classify(a)); ok && !dl.Inert() {
				return dl
			}
		}
	}
	vb := board.NewVectorBoard(bd)
	var (
		seeds    [64]int64
		deltas   [64]fpga.VectorDelta
		repairAt [64]int
		live     = ^uint64(0)
		repaired uint64
	)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	vb.StartBatch(seeds[:])
	inject := func(i, step int) {
		deltas[i] = pick()
		vb.DUT.ApplyDelta(i, deltas[i])
		repaired &^= 1 << uint(i)
		repairAt[i] = step + 1 + rng.Intn(12)
		if i%7 == 0 {
			repairAt[i] = -1 // stays in observation (overlay active)
		}
	}
	for i := 0; i < 64; i++ {
		inject(i, 0)
	}
	for step := 1; step <= 40; step++ {
		vb.Step()
		for rest := live &^ repaired; rest != 0; rest &= rest - 1 {
			if i := bits.TrailingZeros64(rest); repairAt[i] == step {
				vb.DUT.RemoveDelta(i, deltas[i])
				repaired |= 1 << uint(i)
			}
		}
		switch step {
		case 10:
			// Retire a few repaired lanes, as the scheduler does.
			for rest := repaired & live & 0x0f0f_0000_f0f0_00f0; rest != 0; rest &= rest - 1 {
				i := bits.TrailingZeros64(rest)
				vb.FreezeLane(i)
				live &^= 1 << uint(i)
			}
		case 20:
			// Refill the retired lanes with fresh injections.
			mask := ^live
			var rs []int64
			for rest := mask; rest != 0; rest &= rest - 1 {
				rs = append(rs, rng.Int63())
			}
			vb.RefillLanes(mask, rs)
			for rest := mask; rest != 0; rest &= rest - 1 {
				inject(bits.TrailingZeros64(rest), step)
			}
			live = ^uint64(0)
		}

		oracle := fpga.DivergenceWord(vb.Golden, vb.DUT)
		frozen := vb.Golden.FrozenLanes() | vb.DUT.FrozenLanes()
		retirable := live & repaired &^ frozen
		masks := []uint64{1, 1 << 63, ^uint64(0), retirable, live, rng.Uint64(), 1 << uint(rng.Intn(64))}
		for _, m := range masks {
			got := vb.LockedWord(m)
			if want := m &^ oracle &^ frozen; got != want {
				t.Fatalf("%s step %d: LockedWord(%#x) = %#x, DivergenceWord oracle says %#x",
					d.Name, step, m, got, want)
			}
		}
		locked += bits.OnesCount64(retirable &^ oracle)
		diverged += bits.OnesCount64(retirable & oracle)
	}
	return locked, diverged
}
