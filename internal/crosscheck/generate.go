package crosscheck

import (
	"fmt"
	"math/rand"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/place"
)

// Design generation. The conformance suite alternates between two flavours:
// netlist designs drawn from designs.Random and pushed through the real
// synth/place flow, and raw-fabric designs built directly on the
// configuration fabric to reach resources the netlist flow cannot express —
// SRL16 LUTs, BRAM ports, and long-line wired-ANDs. Both flavours are pure
// functions of their seed.
//
// Raw-fabric designs obey one hard constraint: the GOLDEN configuration must
// never mutate itself (no free-running SRL shifts, no fault-free BRAM
// writes), because the campaign repairs the DUT toward a static golden
// snapshot. SRLs therefore sit behind CEConstZero and BRAM write enables are
// tied to constant-zero outputs — still history-coupled by the static rule
// (which is what disables triage and the early exit), while injected-DUT
// dynamics remain fully exercised and repairable.

// Design is one generated conformance design.
type Design struct {
	Name   string
	Placed *place.Placed
	// Raw marks a raw-fabric design (built with fpga.ConfigBuilder rather
	// than placed from a netlist).
	Raw bool
}

// mix derives a sub-seed from (seed, lane) with a splitmix64-style
// finalizer, so every generated artifact is decorrelated but reproducible.
func mix(seed int64, lane uint64) int64 {
	x := uint64(seed) ^ (lane+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Generate returns design i of the seeded suite on geometry g. Every third
// design is raw-fabric; the rest are random netlists. Netlist generation
// retries a bounded number of derived seeds when a candidate does not fit
// the geometry, so the suite is total and still deterministic.
func Generate(g device.Geometry, baseSeed int64, i int) (Design, error) {
	seed := mix(baseSeed, uint64(i))
	if i%3 == 2 {
		p, err := rawDesign(g, seed)
		if err != nil {
			return Design{}, fmt.Errorf("crosscheck: raw design %d: %w", i, err)
		}
		return Design{Name: p.Circuit.Name, Placed: p, Raw: true}, nil
	}
	for attempt := 0; attempt < 16; attempt++ {
		spec := designs.Random(mix(seed, uint64(attempt)))
		p, err := place.Place(spec.Build(), g)
		if err == nil {
			return Design{Name: spec.Name, Placed: p}, nil
		}
	}
	return Design{}, fmt.Errorf("crosscheck: netlist design %d: no candidate placed after 16 attempts", i)
}

// StressDesigns returns the demoted-lane stress set: seeded vector-eligible
// designs that maximize the traffic the vector kernel must carry or
// overlay — LUT-mode bit flips that turn live LUTs into active SRL16s (a
// carry riding lanes for its clean/persist windows) and BRAM content/port
// bits behind a statically read-only port (content flips ride lanes as word
// overlays, mapped port-field flips ride them as carries after a scalar
// observe phase, and unmapped slots retire in the planner). Unlike the
// suite's rotating raw designs, none of these is history-coupled, so the
// vector kernel engages rather than falling back wholesale.
func StressDesigns(g device.Geometry, seed int64) ([]Design, error) {
	type gen struct {
		tag   string
		build func(device.Geometry, int64) (*place.Placed, error)
	}
	gens := []gen{
		{"srl", stressLUTDense},
		{"bram", stressBRAMReadOnly},
		{"mix", stressMixed},
	}
	var ds []Design
	for i, gn := range gens {
		p, err := gn.build(g, mix(seed, uint64(0x57e55+i)))
		if err != nil {
			return nil, fmt.Errorf("crosscheck: stress design %s: %w", gn.tag, err)
		}
		ds = append(ds, Design{Name: p.Circuit.Name, Placed: p, Raw: true})
	}
	return ds, nil
}

// stressCells fills rows [rLo, rHi) of columns [0, cols) with a snake of
// registered accumulators plus combinational taps, seeded by a toggle cell
// at (rLo, 0). Every LUT is live in normal mode, so any sampled LUT-mode
// bit flip creates an active SRL16 whose shifting truth table feeds real
// observers — the densest possible demoted-lane workload. Returns the
// output refs it wants observed.
func stressCells(b *fpga.ConfigBuilder, rng *rand.Rand, rLo, rHi, cols int,
	addSite func(r, c, o int, reg bool)) []device.NetRef {
	var outs []device.NetRef
	for r := rLo; r < rHi; r++ {
		for c := 0; c < cols; c++ {
			if r == rLo && c == 0 {
				// Seed toggle: FF0 inverts itself every cycle.
				b.SetLUT(r, c, 0, fpga.TruthNot)
				b.RouteInput(r, c, 0, 0, 0)
			} else {
				// Accumulator: own registered out0 XOR the neighbour's
				// out0 (west, or north at a row start).
				b.SetLUT(r, c, 0, fpga.TruthXor2)
				b.RouteInput(r, c, 0, 0, 0)
				if c == 0 {
					b.RouteInput(r, c, 0, 1, 12) // north out0
				} else {
					b.RouteInput(r, c, 0, 1, 4) // west out0
				}
			}
			b.SetFF(r, c, 0, rng.Intn(2) == 1, device.CEConstOne, 0, false)
			b.SetOutMux(r, c, 0, true)
			addSite(r, c, 0, true)
			// Combinational tap: seeded truth of (own out0, west out1).
			b.SetLUT(r, c, 1, uint16(rng.Uint32())|1) // never constant-zero
			b.RouteInput(r, c, 1, 0, 0)
			b.RouteInput(r, c, 1, 1, 5)
			b.SetOutMux(r, c, 1, false)
			addSite(r, c, 1, false)
		}
	}
	// Observe the snake ends and a seeded mid-row tap, both slots.
	last := rHi - 1
	outs = append(outs,
		device.NetRef{Kind: device.NetCLBOut, R: last, C: cols - 1, O: 0},
		device.NetRef{Kind: device.NetCLBOut, R: last, C: cols - 1, O: 1},
		device.NetRef{Kind: device.NetCLBOut, R: rLo, C: cols - 1, O: 1},
		device.NetRef{Kind: device.NetCLBOut, R: rLo + (rHi-rLo)/2, C: rng.Intn(cols), O: 0},
	)
	return outs
}

// stressROBRAM attaches a statically read-only port of BRAM block (0, blk):
// enable tied to a constant-one output, write enable left unbound (the
// no-WE port keeps the design outside the history-coupled rule), three
// address bits on registered toggles, full seeded content, and two dout
// bits observed on column long lines. Content-bit flips become lane word
// overlays; port-field flips exercise the carry path.
func stressROBRAM(b *fpga.ConfigBuilder, rng *rand.Rand, g device.Geometry, blk int,
	addSite func(r, c, o int, reg bool)) []device.NetRef {
	rb := g.BRAMRowBase(blk)
	ac := g.BRAMAdjCol(0)
	// Constant-one EN driver.
	b.SetLUT(rb, ac, 2, fpga.TruthOne)
	b.SetOutMux(rb, ac, 2, false)
	addSite(rb, ac, 2, false)
	b.BindBRAMEN(0, blk, 0, 2)
	// Three toggling address bits with staggered periods: FF k inverts
	// itself through LUT k, initialized from the seed.
	for j := 0; j < 3; j++ {
		r := rb + 1 + j
		b.SetLUT(r, ac, 2, fpga.TruthNot)
		b.RouteInput(r, ac, 2, 0, 2)
		b.SetFF(r, ac, 2, rng.Intn(2) == 1, device.CEConstOne, 0, false)
		b.SetOutMux(r, ac, 2, true)
		addSite(r, ac, 2, true)
		b.BindBRAMAddr(0, blk, j, 1+j, 2)
	}
	// Seeded content everywhere: addressed words make dout move; the rest
	// are benign-but-simulated demotions.
	for w := 0; w < 1<<device.BRAMAddrBits; w++ {
		b.SetBRAMWord(0, blk, w, uint16(rng.Uint32()))
	}
	ch := rng.Intn(device.LongLinesPerCol)
	b.DriveBRAMDout(0, blk, ch, rng.Intn(device.BRAMWidth))
	ch2 := (ch + 1) % device.LongLinesPerCol
	b.DriveBRAMDout(0, blk, ch2, rng.Intn(device.BRAMWidth))
	return []device.NetRef{
		{Kind: device.NetColLL, C: ac, O: ch},
		{Kind: device.NetColLL, C: ac, O: ch2},
	}
}

// stressBounds validates the geometry and returns the usable row band.
func stressBounds(g device.Geometry) error {
	if g.Rows < 6 || g.Cols < 4 {
		return fmt.Errorf("geometry %s too small for stress designs", g)
	}
	return nil
}

// stressLUTDense is the SRL16-heavy stress design: every CLB in a band
// carries live normal-mode LUTs, so LUT-mode injections create active
// shift registers wherever they land.
func stressLUTDense(g device.Geometry, seed int64) (*place.Placed, error) {
	if err := stressBounds(g); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := fpga.NewConfigBuilder(g)
	var sites []place.Site
	node := 0
	addSite := func(r, c, o int, reg bool) {
		sites = append(sites, place.Site{R: r, C: c, O: o, Registered: reg, Node: node})
		node++
	}
	outs := stressCells(b, rng, 1, g.Rows-1, g.Cols, addSite)
	return finishStress(b, fmt.Sprintf("STRS SRL %d", seed), g, outs, sites)
}

// stressBRAMReadOnly is the BRAM-port stress design: a read-only port with
// live addressing over seeded content, plus a thin strip of logic for
// autonomous activity.
func stressBRAMReadOnly(g device.Geometry, seed int64) (*place.Placed, error) {
	if err := stressBounds(g); err != nil {
		return nil, err
	}
	if g.BRAMCols < 1 || g.Rows < g.BRAMRowBase(0)+4 {
		return nil, fmt.Errorf("geometry %s lacks BRAM rows for stress designs", g)
	}
	rng := rand.New(rand.NewSource(seed))
	b := fpga.NewConfigBuilder(g)
	var sites []place.Site
	node := 0
	addSite := func(r, c, o int, reg bool) {
		sites = append(sites, place.Site{R: r, C: c, O: o, Registered: reg, Node: node})
		node++
	}
	outs := stressCells(b, rng, 1, 3, g.Cols/2, addSite)
	outs = append(outs, stressROBRAM(b, rng, g, 0, addSite)...)
	return finishStress(b, fmt.Sprintf("STRS BRAM %d", seed), g, outs, sites)
}

// stressMixed combines the dense-LUT band with a second read-only BRAM
// block, packing both demotion classes into one campaign.
func stressMixed(g device.Geometry, seed int64) (*place.Placed, error) {
	if err := stressBounds(g); err != nil {
		return nil, err
	}
	blk := g.BRAMBlocksPerCol() - 1
	if g.BRAMCols < 1 || g.Rows < g.BRAMRowBase(blk)+4 {
		return nil, fmt.Errorf("geometry %s lacks BRAM rows for stress designs", g)
	}
	rng := rand.New(rand.NewSource(seed))
	b := fpga.NewConfigBuilder(g)
	var sites []place.Site
	node := 0
	addSite := func(r, c, o int, reg bool) {
		sites = append(sites, place.Site{R: r, C: c, O: o, Registered: reg, Node: node})
		node++
	}
	// Columns 0..Cols-2 only: the BRAM-adjacent column belongs to the port
	// drivers (slot 2 there stays free of the snake's slots 0/1 anyway,
	// but separate columns keep the routing legible).
	outs := stressCells(b, rng, 1, g.Rows-1, g.Cols-1, addSite)
	outs = append(outs, stressROBRAM(b, rng, g, blk, addSite)...)
	return finishStress(b, fmt.Sprintf("STRS MIX %d", seed), g, outs, sites)
}

// finishStress pre-flights a stress configuration (it must decode, run, and
// stay outside the history-coupled rule) and wraps it as a placement.
func finishStress(b *fpga.ConfigBuilder, name string, g device.Geometry, outs []device.NetRef, sites []place.Site) (*place.Placed, error) {
	f, err := b.Device()
	if err != nil {
		return nil, err
	}
	if f.HistoryCoupled() {
		return nil, fmt.Errorf("%s decoded history-coupled; the vector kernel would fall back wholesale", name)
	}
	f.StepN(4)
	return place.FromFabric(name, g, b.Memory(), nil, outs, sites), nil
}

// rawDesign builds a seeded raw-fabric design: a toggle cell and a 4-bit
// LFSR provide autonomous activity; optional features add a static SRL16
// with live addressing, a long-line wired-AND with a fabric consumer, an
// FF chain, a hex-wire (half-latch keeper) tap, and a read-only-in-golden
// BRAM port driving a column long line.
func rawDesign(g device.Geometry, seed int64) (*place.Placed, error) {
	if g.Rows < 8 || g.Cols < 6 {
		return nil, fmt.Errorf("geometry %s too small for raw designs", g)
	}
	rng := rand.New(rand.NewSource(seed))
	b := fpga.NewConfigBuilder(g)
	name := fmt.Sprintf("RAWF %d", seed)

	var outs []device.NetRef
	var sites []place.Site
	node := 0
	addSite := func(r, c, o int, reg bool) {
		sites = append(sites, place.Site{R: r, C: c, O: o, Registered: reg, Node: node})
		node++
	}

	r0 := 2 + rng.Intn(g.Rows-3) // keep clear of row 0 (BRAM drivers) and leave room for r0+1

	// Toggle cell at (r0, 0): FF0 inverts itself every cycle.
	b.SetLUT(r0, 0, 0, fpga.TruthNot)
	b.RouteInput(r0, 0, 0, 0, 0) // own out0
	b.SetFF(r0, 0, 0, rng.Intn(2) == 1, device.CEConstOne, 0, false)
	b.SetOutMux(r0, 0, 0, true)
	addSite(r0, 0, 0, true)
	outs = append(outs, device.NetRef{Kind: device.NetCLBOut, R: r0, C: 0, O: 0})

	// 4-bit LFSR at (r0, 1): FF k+1 shifts from out k, FF0 closes the loop
	// with out3 XOR out1. FF0 inits to 1 so reset state is nonzero.
	b.SetLUT(r0, 1, 0, fpga.TruthXor2)
	b.RouteInput(r0, 1, 0, 0, 3) // own out3
	b.RouteInput(r0, 1, 0, 1, 1) // own out1
	for l := 1; l < device.LUTsPerCLB; l++ {
		b.SetLUT(r0, 1, l, fpga.TruthBuf)
		b.RouteInput(r0, 1, l, 0, l-1) // own out l-1
	}
	for k := 0; k < device.FFsPerCLB; k++ {
		b.SetFF(r0, 1, k, k == 0, device.CEConstOne, 0, false)
		b.SetOutMux(r0, 1, k, true)
		addSite(r0, 1, k, true)
	}
	outs = append(outs, device.NetRef{Kind: device.NetCLBOut, R: r0, C: 1, O: 3})

	// Static SRL16 at (r0, 2) LUT1: shift-register mode with CEConstZero (a
	// tap-addressable ROM in the fault-free design — injections can bring
	// the shift to life in the DUT). The LFSR's bits address the tap, so the
	// observed output is live.
	if rng.Intn(10) < 6 {
		b.SetSRL(r0, 2, 1, true)
		b.SetLUT(r0, 2, 1, uint16(rng.Uint32()))
		for in := 0; in < 3; in++ {
			b.RouteInput(r0, 2, 1, in, 5+in) // west (LFSR) outs 1..3
		}
		b.RouteInput(r0, 2, 1, 3, 4) // shift-in: west out0
		b.SetFF(r0, 2, 1, false, device.CEConstZero, 0, false)
		b.SetOutMux(r0, 2, 1, false)
		addSite(r0, 2, 1, false)
		outs = append(outs, device.NetRef{Kind: device.NetCLBOut, R: r0, C: 2, O: 1})
	}

	// Long-line wired-AND on a row channel: the toggle cell and the LFSR's
	// out3 both drive it, and a consumer cell taps it back into logic.
	if rng.Intn(10) < 7 {
		ch := rng.Intn(device.LongLinesPerRow)
		b.DriveLL(r0, 0, ch, 0)
		b.DriveLL(r0, 1, ch, 3)
		outs = append(outs, device.NetRef{Kind: device.NetRowLL, R: r0, O: ch})
		b.SetLUT(r0, 3, 0, fpga.TruthBuf)
		b.RouteInput(r0, 3, 0, 0, 24+ch) // row long line
		b.SetOutMux(r0, 3, 0, false)
		addSite(r0, 3, 0, false)
		outs = append(outs, device.NetRef{Kind: device.NetCLBOut, R: r0, C: 3, O: 0})
	}

	// Hex-wire tap at (r0, 3) LUT2: rows above HexDistance read a real CLB
	// output; rows below read an undriven wire's half-latch keeper.
	if rng.Intn(10) < 5 {
		b.SetLUT(r0, 3, 2, fpga.TruthBuf)
		b.RouteInput(r0, 3, 2, 0, 20) // hex wire channel 0
		b.SetOutMux(r0, 3, 2, false)
		addSite(r0, 3, 2, false)
		outs = append(outs, device.NetRef{Kind: device.NetCLBOut, R: r0, C: 3, O: 2})
	}

	// FF chain along row r0+1, fed from the toggle cell to the north.
	if rng.Intn(10) < 7 {
		for c := 0; c < 4; c++ {
			b.SetLUT(r0+1, c, 0, fpga.TruthBuf)
			if c == 0 {
				b.RouteInput(r0+1, c, 0, 0, 12) // north out0 (the toggle)
			} else {
				b.RouteInput(r0+1, c, 0, 0, 4) // west out0
			}
			b.SetFF(r0+1, c, 0, false, device.CEConstOne, 0, false)
			b.SetOutMux(r0+1, c, 0, true)
			addSite(r0+1, c, 0, true)
		}
		outs = append(outs, device.NetRef{Kind: device.NetCLBOut, R: r0 + 1, C: 3, O: 0})
	}

	// BRAM port: enabled, write enable tied to a constant-zero output (so
	// golden content never changes), address bit 0 toggling, dout bit on a
	// column long line. Still history-coupled by the static EN+WE rule.
	if g.BRAMCols > 0 && rng.Intn(10) < 6 {
		blk := rng.Intn(g.BRAMBlocksPerCol())
		rb := g.BRAMRowBase(blk)
		ac := g.BRAMAdjCol(0)
		// Constant-one EN driver.
		b.SetLUT(rb, ac, 0, fpga.TruthOne)
		b.SetOutMux(rb, ac, 0, false)
		addSite(rb, ac, 0, false)
		b.BindBRAMEN(0, blk, 0, 0)
		// Constant-zero WE driver (an unprogrammed LUT reads zero; the site
		// is configured explicitly so the intent survives injection triage).
		b.SetLUT(rb+1, ac, 0, fpga.TruthZero)
		b.SetOutMux(rb+1, ac, 0, false)
		addSite(rb+1, ac, 0, false)
		b.BindBRAMWE(0, blk, 1, 0)
		// Toggling address bit 0.
		b.SetLUT(rb+2, ac, 0, fpga.TruthNot)
		b.RouteInput(rb+2, ac, 0, 0, 0)
		b.SetFF(rb+2, ac, 0, false, device.CEConstOne, 0, false)
		b.SetOutMux(rb+2, ac, 0, true)
		addSite(rb+2, ac, 0, true)
		b.BindBRAMAddr(0, blk, 0, 2, 0)
		// Distinct content in the two addressed words so the output moves.
		b.SetBRAMWord(0, blk, 0, uint16(rng.Uint32()))
		b.SetBRAMWord(0, blk, 1, uint16(rng.Uint32()))
		ch := rng.Intn(device.LongLinesPerCol)
		bit := rng.Intn(device.BRAMWidth)
		b.DriveBRAMDout(0, blk, ch, bit)
		outs = append(outs, device.NetRef{Kind: device.NetColLL, C: ac, O: ch})
	}

	// Pre-flight: the configuration must decode and run.
	f, err := b.Device()
	if err != nil {
		return nil, err
	}
	f.StepN(4)

	return place.FromFabric(name, g, b.Memory(), nil, outs, sites), nil
}
