package netlist

import "fmt"

// Simulator evaluates a Circuit at the logical level. It serves as the
// golden reference the placed-and-routed bitstream is verified against:
// after placement, the FPGA-level simulation must match this one
// cycle-for-cycle on every output port.
type Simulator struct {
	c      *Circuit
	driver []int
	order  []int // topological LUT order
	val    []bool
	ffNext map[int]bool
}

// NewSimulator prepares a simulator; the circuit must validate.
func NewSimulator(c *Circuit) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	order, err := c.topoLUTs()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		c:      c,
		driver: c.DriverOf(),
		order:  order,
		val:    make([]bool, c.NumSignals),
		ffNext: make(map[int]bool),
	}
	s.Reset()
	return s, nil
}

// Reset loads FF init values and constants, then settles.
func (s *Simulator) Reset() {
	for _, n := range s.c.Nodes {
		switch n.Kind {
		case NodeFF, NodeConst:
			s.val[n.Out] = n.Init
		}
	}
	s.settle()
}

// SetInput drives input port name with the low bits of v (LSB-first) and
// re-settles combinational logic.
func (s *Simulator) SetInput(name string, v uint64) error {
	p, ok := s.c.FindInput(name)
	if !ok {
		return fmt.Errorf("netlist: no input port %q", name)
	}
	for i, sig := range p.Bits {
		s.val[sig] = v&(1<<uint(i)) != 0
	}
	s.settle()
	return nil
}

// SetInputBits drives an input port bit by bit.
func (s *Simulator) SetInputBits(name string, bits []bool) error {
	p, ok := s.c.FindInput(name)
	if !ok {
		return fmt.Errorf("netlist: no input port %q", name)
	}
	if len(bits) != p.Width() {
		return fmt.Errorf("netlist: port %q width %d, got %d bits", name, p.Width(), len(bits))
	}
	for i, sig := range p.Bits {
		s.val[sig] = bits[i]
	}
	s.settle()
	return nil
}

// settle evaluates LUTs in topological order (single pass suffices).
func (s *Simulator) settle() {
	for _, i := range s.order {
		n := &s.c.Nodes[i]
		idx := 0
		for k, in := range n.In {
			if s.val[in] {
				idx |= 1 << uint(k)
			}
		}
		s.val[n.Out] = n.Truth&(1<<uint(idx)) != 0
	}
}

// Step advances one clock cycle.
func (s *Simulator) Step() {
	for i := range s.c.Nodes {
		n := &s.c.Nodes[i]
		if n.Kind != NodeFF {
			continue
		}
		if n.HasCE && !s.val[n.In[1]] {
			s.ffNext[i] = s.val[n.Out]
		} else {
			s.ffNext[i] = s.val[n.In[0]]
		}
	}
	for i, v := range s.ffNext {
		s.val[s.c.Nodes[i].Out] = v
	}
	s.settle()
}

// StepN advances n cycles.
func (s *Simulator) StepN(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Output returns output port name packed LSB-first into a uint64 (ports
// wider than 64 bits are truncated; use OutputBits for full width).
func (s *Simulator) Output(name string) (uint64, error) {
	p, ok := s.c.FindOutput(name)
	if !ok {
		return 0, fmt.Errorf("netlist: no output port %q", name)
	}
	var v uint64
	for i, sig := range p.Bits {
		if i >= 64 {
			break
		}
		if s.val[sig] {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// OutputBits returns output port name as a bool slice.
func (s *Simulator) OutputBits(name string) ([]bool, error) {
	p, ok := s.c.FindOutput(name)
	if !ok {
		return nil, fmt.Errorf("netlist: no output port %q", name)
	}
	out := make([]bool, p.Width())
	for i, sig := range p.Bits {
		out[i] = s.val[sig]
	}
	return out, nil
}
