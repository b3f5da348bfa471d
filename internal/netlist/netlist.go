// Package netlist defines the technology-mapped circuit representation used
// by the benchmark design generators: a flat graph of 4-input LUTs and
// flip-flops connected by single-driver signals. The placement/routing flow
// (internal/place) maps a Circuit onto the device model, producing the
// configuration bitstream the SEU studies corrupt.
package netlist

import (
	"fmt"
)

// SignalID names one net inside a circuit. Signals are dense, starting at 0.
type SignalID int32

// Invalid is the null signal.
const Invalid SignalID = -1

// NodeKind classifies circuit nodes.
type NodeKind uint8

const (
	// NodeLUT is a combinational 4-input lookup table.
	NodeLUT NodeKind = iota
	// NodeFF is a D flip-flop, optionally with a clock enable.
	NodeFF
	// NodeConst produces a constant value.
	NodeConst
)

func (k NodeKind) String() string {
	switch k {
	case NodeLUT:
		return "lut"
	case NodeFF:
		return "ff"
	case NodeConst:
		return "const"
	}
	return "unknown"
}

// Node is one circuit element.
type Node struct {
	Kind  NodeKind
	Truth uint16     // LUT truth table (inputs indexed LSB-first)
	In    []SignalID // LUT: 1..4 inputs; FF: D (and CE when HasCE)
	Init  bool       // FF initial value, or the constant's value
	HasCE bool       // FF has an explicit routed clock enable
	Out   SignalID
}

// Port is a named bundle of signals at the circuit boundary.
type Port struct {
	Name string
	Bits []SignalID
}

// Width returns the number of bits in the port.
func (p Port) Width() int { return len(p.Bits) }

// Circuit is a complete technology-mapped design.
type Circuit struct {
	Name       string
	Nodes      []Node
	Inputs     []Port
	Outputs    []Port
	NumSignals int
}

// Stats summarizes a circuit.
type Stats struct {
	LUTs, FFs, Consts     int
	InputBits, OutputBits int
	Signals               int
	LogicDepth            int // longest combinational LUT chain
	FFsWithoutCE          int // candidates for half-latch clock enables
}

func (s Stats) String() string {
	return fmt.Sprintf("%d LUTs, %d FFs (%d CE-less), %d consts, %d in, %d out, depth %d",
		s.LUTs, s.FFs, s.FFsWithoutCE, s.Consts, s.InputBits, s.OutputBits, s.LogicDepth)
}

// DriverOf returns, for each signal, the index of its driving node, or -1
// when the signal is a circuit input (or undriven).
func (c *Circuit) DriverOf() []int {
	d := make([]int, c.NumSignals)
	for i := range d {
		d[i] = -1
	}
	for i, n := range c.Nodes {
		if n.Out >= 0 {
			d[n.Out] = i
		}
	}
	return d
}

// Validate checks structural invariants: every signal has exactly one
// driver (node or input port), node pin counts are legal, ports reference
// valid signals, and the combinational LUT graph is acyclic.
func (c *Circuit) Validate() error {
	if c.NumSignals < 0 {
		return fmt.Errorf("netlist %q: negative signal count", c.Name)
	}
	drivers := make([]int, c.NumSignals) // count of drivers per signal
	for _, p := range c.Inputs {
		for _, s := range p.Bits {
			if s < 0 || int(s) >= c.NumSignals {
				return fmt.Errorf("netlist %q: input port %q references signal %d out of range", c.Name, p.Name, s)
			}
			drivers[s]++
		}
	}
	for i, n := range c.Nodes {
		if n.Out < 0 || int(n.Out) >= c.NumSignals {
			return fmt.Errorf("netlist %q: node %d output %d out of range", c.Name, i, n.Out)
		}
		drivers[n.Out]++
		switch n.Kind {
		case NodeLUT:
			if len(n.In) < 1 || len(n.In) > 4 {
				return fmt.Errorf("netlist %q: LUT %d has %d inputs", c.Name, i, len(n.In))
			}
		case NodeFF:
			want := 1
			if n.HasCE {
				want = 2
			}
			if len(n.In) != want {
				return fmt.Errorf("netlist %q: FF %d has %d inputs, want %d", c.Name, i, len(n.In), want)
			}
		case NodeConst:
			if len(n.In) != 0 {
				return fmt.Errorf("netlist %q: const %d has inputs", c.Name, i)
			}
		default:
			return fmt.Errorf("netlist %q: node %d has unknown kind", c.Name, i)
		}
		for _, s := range n.In {
			if s < 0 || int(s) >= c.NumSignals {
				return fmt.Errorf("netlist %q: node %d input %d out of range", c.Name, i, s)
			}
		}
	}
	for s, d := range drivers {
		if d == 0 {
			return fmt.Errorf("netlist %q: signal %d has no driver", c.Name, s)
		}
		if d > 1 {
			return fmt.Errorf("netlist %q: signal %d has %d drivers", c.Name, s, d)
		}
	}
	for _, p := range c.Outputs {
		for _, s := range p.Bits {
			if s < 0 || int(s) >= c.NumSignals {
				return fmt.Errorf("netlist %q: output port %q references signal %d out of range", c.Name, p.Name, s)
			}
		}
	}
	if _, err := c.topoLUTs(); err != nil {
		return err
	}
	return nil
}

// topoLUTs returns LUT node indices in topological order over the
// combinational graph (FF and const outputs are cut points), or an error if
// a combinational cycle exists.
func (c *Circuit) topoLUTs() ([]int, error) {
	driver := c.DriverOf()
	indeg := make(map[int]int)
	adj := make(map[int][]int)
	var luts []int
	for i, n := range c.Nodes {
		if n.Kind != NodeLUT {
			continue
		}
		luts = append(luts, i)
		for _, s := range n.In {
			d := driver[s]
			if d >= 0 && c.Nodes[d].Kind == NodeLUT {
				adj[d] = append(adj[d], i)
				indeg[i]++
			}
		}
	}
	var queue, order []int
	for _, i := range luts {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != len(luts) {
		return nil, fmt.Errorf("netlist %q: combinational cycle detected", c.Name)
	}
	return order, nil
}

// Stats computes circuit statistics.
func (c *Circuit) Stats() Stats {
	var st Stats
	st.Signals = c.NumSignals
	for _, n := range c.Nodes {
		switch n.Kind {
		case NodeLUT:
			st.LUTs++
		case NodeFF:
			st.FFs++
			if !n.HasCE {
				st.FFsWithoutCE++
			}
		case NodeConst:
			st.Consts++
		}
	}
	for _, p := range c.Inputs {
		st.InputBits += p.Width()
	}
	for _, p := range c.Outputs {
		st.OutputBits += p.Width()
	}
	st.LogicDepth = c.logicDepth()
	return st
}

func (c *Circuit) logicDepth() int {
	order, err := c.topoLUTs()
	if err != nil {
		return -1
	}
	driver := c.DriverOf()
	depth := make(map[int]int)
	max := 0
	for _, i := range order {
		d := 1
		for _, s := range c.Nodes[i].In {
			dr := driver[s]
			if dr >= 0 && c.Nodes[dr].Kind == NodeLUT {
				if depth[dr]+1 > d {
					d = depth[dr] + 1
				}
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}

// FindInput returns the named input port.
func (c *Circuit) FindInput(name string) (Port, bool) {
	for _, p := range c.Inputs {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// FindOutput returns the named output port.
func (c *Circuit) FindOutput(name string) (Port, bool) {
	for _, p := range c.Outputs {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}
