// Package place maps a technology-mapped netlist onto the device model:
// site assignment (LUT/FF pairs merged where possible), input-pin
// assignment, and routing through the fabric's neighbour wires, hex wires,
// long lines, and — where no direct resource exists — automatically
// inserted route-through LUTs. The result is a configuration bitstream plus
// the pin/net bindings the test harness needs to drive and observe the
// design.
//
// Routing fidelity is what makes the SEU study meaningful: every connection
// the design uses is expressed in configuration bits (input-mux selects,
// long-line drivers, LUT truth tables), so corrupting those bits breaks the
// design the way a real configuration upset would.
package place

import (
	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/netlist"
)

// Options tune the placement flow.
type Options struct {
	// MaxSitesPerCLB bounds how many of a CLB's four LUT/FF sites the
	// placer fills with design logic, keeping the rest free for
	// route-through insertion. Default 2.
	MaxSitesPerCLB int
}

// DefaultOptions returns the standard knobs.
func DefaultOptions() Options { return Options{MaxSitesPerCLB: 2} }

// Site is one placed LUT/FF pair.
type Site struct {
	R, C, O    int
	Registered bool // output taken from the FF
	Node       int  // driving netlist node index, or -1 for a route-through
}

// Placed is the result of placement and routing.
type Placed struct {
	Geom    device.Geometry
	Circuit *netlist.Circuit
	// Memory is the complete configuration produced by the flow.
	Memory *bitstream.Memory
	// InputPins maps each input port to its assigned device pins (bit
	// order matches the port).
	InputPins map[string][]int
	// OutputNets maps each output port to the CLB outputs carrying it.
	OutputNets map[string][]device.NetRef
	// Sites lists every placed site including route-throughs.
	Sites []Site

	// Statistics.
	LUTsUsed      int
	FFsUsed       int
	RouteThroughs int
	LongLinesUsed int
}

// SlicesUsed returns the number of slices (2 LUT/FF pairs each) occupied by
// design logic — the unit the paper's Table I reports. Route-through LUTs
// are excluded: they are this fabric's analogue of Virtex routing PIPs,
// which consume configuration bits but no logic slices.
func (p *Placed) SlicesUsed() int {
	type sl struct{ r, c, s int }
	seen := make(map[sl]bool)
	for _, s := range p.Sites {
		if s.Node < 0 {
			continue
		}
		seen[sl{s.R, s.C, s.O / device.LUTsPerSlice}] = true
	}
	return len(seen)
}

// Utilization returns used slices / total slices.
func (p *Placed) Utilization() float64 {
	return float64(p.SlicesUsed()) / float64(p.Geom.Slices())
}

// OutputNetIDs returns the fabric net ID of every design output bit, port
// by port in circuit order: the nets a comparator watches.
func (p *Placed) OutputNetIDs() []int {
	var ids []int
	for _, port := range p.Circuit.Outputs {
		for _, ref := range p.OutputNets[port.Name] {
			ids = append(ids, p.Geom.NetID(ref))
		}
	}
	return ids
}

// Bitstream assembles the full configuration bitstream.
func (p *Placed) Bitstream() *bitstream.Bitstream { return bitstream.Full(p.Memory) }

// Place maps circuit c onto geometry g. It first tries the default
// density; on routing congestion it retries at half density, which doubles
// the spare routing slots per CLB.
func Place(c *netlist.Circuit, g device.Geometry) (*Placed, error) {
	p, err := PlaceOpt(c, g, Options{MaxSitesPerCLB: 2})
	if err == nil {
		return p, nil
	}
	if p2, err2 := PlaceOpt(c, g, Options{MaxSitesPerCLB: 1}); err2 == nil {
		return p2, nil
	}
	return nil, err
}

// PlaceOpt maps circuit c onto geometry g.
func PlaceOpt(c *netlist.Circuit, g device.Geometry, opt Options) (*Placed, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxSitesPerCLB <= 0 || opt.MaxSitesPerCLB > 4 {
		opt.MaxSitesPerCLB = 2
	}
	pl := &placer{
		g:        g,
		c:        c,
		opt:      opt,
		b:        fpga.NewConfigBuilder(g),
		driver:   c.DriverOf(),
		used:     make([]uint8, g.CLBs()),
		reserved: make([]int8, g.CLBs()),
		access:   make(map[netlist.SignalID][]access),
		rowLL:    makeLLTable(g.Rows, device.LongLinesPerRow),
		colLL:    makeLLTable(g.Cols, device.LongLinesPerCol),
		sigPin:   make(map[netlist.SignalID]int),
		pinDone:  make(map[netlist.SignalID]bool),
		out: &Placed{
			Geom:       g,
			Circuit:    c,
			InputPins:  make(map[string][]int),
			OutputNets: make(map[string][]device.NetRef),
		},
	}
	if err := pl.run(); err != nil {
		return nil, err
	}
	pl.out.Memory = pl.b.Memory()
	return pl.out, nil
}

func makeLLTable(n, ch int) [][]netlist.SignalID {
	t := make([][]netlist.SignalID, n)
	for i := range t {
		t[i] = make([]netlist.SignalID, ch)
		for j := range t[i] {
			t[i][j] = netlist.Invalid
		}
	}
	return t
}

// access describes one fabric location where a signal can be tapped.
type access struct {
	kind accessKind
	r, c int // CLB for kOut
	o    int // CLB output for kOut; channel for long lines; pin index for kPin
}

type accessKind uint8

const (
	kOut accessKind = iota
	kPin
	kRowLL
	kColLL
)

type placer struct {
	g      device.Geometry
	c      *netlist.Circuit
	opt    Options
	b      *fpga.ConfigBuilder
	driver []int
	used   []uint8 // per-CLB bitmask of occupied sites
	// reserved counts edge-CLB slots promised to assigned pins that have
	// not yet materialized their route-through; chain hops may only use
	// slots beyond this reservation.
	reserved []int8
	access   map[netlist.SignalID][]access
	// Long-line signal assignment (one signal per row/col channel).
	rowLL  [][]netlist.SignalID
	colLL  [][]netlist.SignalID
	sigPin map[netlist.SignalID]int
	// nodeSite maps node index -> placed site index in out.Sites.
	nodeSite []int
	plans    []sitePlan
	pinDone  map[netlist.SignalID]bool
	out      *Placed
}

func (p *placer) run() error {
	p.assignPins()
	if err := p.placeSites(); err != nil {
		return err
	}
	if err := p.routeAll(); err != nil {
		return err
	}
	return p.bindOutputs()
}

// assignPins binds input-port bits to device pins, west edge first, then
// east, north, south.
func (p *placer) assignPins() {
	g := p.g
	var pool []int
	for r := 0; r < g.Rows; r++ {
		for o := 0; o < 4; o++ {
			pool = append(pool, g.PinWest(r, o))
		}
	}
	for r := 0; r < g.Rows; r++ {
		for o := 0; o < 4; o++ {
			pool = append(pool, g.PinEast(r, o))
		}
	}
	// North/south pools skip the corner columns: corner CLBs already serve
	// four west/east pins and have no slots left for more route-throughs.
	for c := 1; c < g.Cols-1; c++ {
		for o := 0; o < 4; o++ {
			pool = append(pool, g.PinNorth(c, o))
		}
	}
	for c := 1; c < g.Cols-1; c++ {
		for o := 0; o < 4; o++ {
			pool = append(pool, g.PinSouth(c, o))
		}
	}
	// Reserve edge slots only for pins whose signals the netlist actually
	// consumes; unconsumed inputs never need a route-through.
	consumed := make([]bool, p.c.NumSignals)
	for _, n := range p.c.Nodes {
		for _, s := range n.In {
			consumed[s] = true
		}
	}
	next := 0
	for _, port := range p.c.Inputs {
		pins := make([]int, 0, port.Width())
		for _, sig := range port.Bits {
			if next >= len(pool) {
				// Out of pins: leave unassigned; routeAll will fail with a
				// descriptive error if the signal is actually consumed.
				pins = append(pins, -1)
				continue
			}
			pin := pool[next]
			next++
			pins = append(pins, pin)
			p.sigPin[sig] = pin
			p.access[sig] = append(p.access[sig], access{kind: kPin, o: pin})
			if er, ec, ok := p.edgeCLBOf(pin); ok && consumed[sig] {
				p.reserved[er*g.Cols+ec]++
			}
		}
		p.out.InputPins[port.Name] = pins
	}
}
