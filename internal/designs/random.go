package designs

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/synth"
)

// Random returns a seeded randomly generated design Spec. The generator
// emits valid clocked circuits mixing the structures the hand-written
// catalog exercises — random-truth LUT networks, FF and FFCE state,
// shift chains, and registered feedback loops — and is fully determined by
// the seed, so conformance campaigns over random designs reproduce
// bit-for-bit. Random designs sit alongside the catalog: they share the
// Spec shape and flow through the same synth/place/board stack.
func Random(seed int64) Spec {
	name := fmt.Sprintf("RAND %d", seed)
	return Spec{
		Name:  name,
		Class: "random",
		Build: func() *netlist.Circuit { return randomNetlist(name, seed) },
	}
}

// replTruth replicates a truth table over k used inputs to the full 16-bit
// LUT table, so the LUT's value is independent of whatever the placer
// routes to the unused inputs.
func replTruth(t uint16, k int) uint16 {
	for w := 1 << uint(k); w < 16; w *= 2 {
		t |= t << uint(w)
	}
	return t
}

func randomNetlist(name string, seed int64) *netlist.Circuit {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(name)

	in := b.Input("in", 2+rng.Intn(5))
	pool := append([]netlist.SignalID(nil), in...)
	pick := func() netlist.SignalID { return pool[rng.Intn(len(pool))] }

	// Registered feedback loops: allocate the loop signals up front so any
	// node can consume them, and close each loop through a flip-flop at the
	// end (FF outputs are cut points, so no combinational cycles arise).
	feedback := make([]netlist.SignalID, rng.Intn(3))
	for i := range feedback {
		feedback[i] = b.NewSignal()
		pool = append(pool, feedback[i])
	}

	for n := 6 + rng.Intn(18); n > 0; n-- {
		switch rng.Intn(8) {
		case 0, 1, 2: // random-truth LUT with 1..4 inputs
			k := 1 + rng.Intn(4)
			ins := make([]netlist.SignalID, k)
			for j := range ins {
				ins[j] = pick()
			}
			truth := replTruth(uint16(rng.Intn(1<<(1<<uint(k)))), k)
			pool = append(pool, b.LUT(truth, ins...))
		case 3, 4: // plain flip-flop
			pool = append(pool, b.FF(pick(), rng.Intn(2) == 1))
		case 5: // flip-flop with routed clock enable
			pool = append(pool, b.FFCE(pick(), pick(), rng.Intn(2) == 1))
		case 6: // shift chain, 1..4 deep
			pool = append(pool, synth.ShiftChain(b, pick(), 1+rng.Intn(4))...)
		default: // small adder over two random slices of the pool
			w := 1 + rng.Intn(3)
			x := make([]netlist.SignalID, w)
			y := make([]netlist.SignalID, w)
			for j := 0; j < w; j++ {
				x[j], y[j] = pick(), pick()
			}
			pool = append(pool, synth.AddTrunc(b, x, y)...)
		}
	}
	for _, s := range feedback {
		b.BindFF(pick(), s, rng.Intn(2) == 1)
	}

	outs := make([]netlist.SignalID, 1+rng.Intn(6))
	for i := range outs {
		outs[i] = b.Buf(pick())
	}
	b.Output("out", outs)
	return b.MustBuild()
}
