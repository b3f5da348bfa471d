package place

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/netlist"
)

// expandTruth widens a truth table defined over k inputs to the full
// 16-entry table by ignoring the unconnected inputs.
func expandTruth(truth uint16, k int) uint16 {
	mask := (1 << uint(k)) - 1
	var out uint16
	for idx := 0; idx < 16; idx++ {
		if truth&(1<<uint(idx&mask)) != 0 {
			out |= 1 << uint(idx)
		}
	}
	return out
}

// sitePlan captures what one placed site must implement before a physical
// location is known.
type sitePlan struct {
	node       int // netlist node index that owns the site
	truth      uint16
	inputs     []netlist.SignalID
	registered bool
	init       bool
	dInv       bool
	ce         netlist.SignalID // Invalid when the FF has no routed CE
}

// planSites decides the site list: LUT nodes merge into the FF they feed
// when they have no other consumer; all other FFs get a buffer LUT.
func (p *placer) planSites() ([]sitePlan, error) {
	fanout := make([]int, p.c.NumSignals)
	for _, n := range p.c.Nodes {
		for _, s := range n.In {
			fanout[s]++
		}
	}
	for _, port := range p.c.Outputs {
		for _, s := range port.Bits {
			fanout[s]++
		}
	}
	merged := make([]bool, len(p.c.Nodes))
	var plans []sitePlan
	for i, n := range p.c.Nodes {
		switch n.Kind {
		case netlist.NodeFF:
			plan := sitePlan{node: i, registered: true, init: n.Init, ce: netlist.Invalid}
			if n.HasCE {
				plan.ce = n.In[1]
			}
			d := n.In[0]
			if drv := p.driver[d]; drv >= 0 && p.c.Nodes[drv].Kind == netlist.NodeLUT && fanout[d] == 1 {
				lut := p.c.Nodes[drv]
				plan.truth = expandTruth(lut.Truth, len(lut.In))
				plan.inputs = lut.In
				merged[drv] = true
			} else {
				plan.truth = fpga.TruthBuf
				plan.inputs = []netlist.SignalID{d}
			}
			plans = append(plans, plan)
		case netlist.NodeConst:
			truth := fpga.TruthZero
			if n.Init {
				truth = fpga.TruthOne
			}
			plans = append(plans, sitePlan{node: i, truth: truth, ce: netlist.Invalid})
		}
	}
	for i, n := range p.c.Nodes {
		if n.Kind != netlist.NodeLUT || merged[i] {
			continue
		}
		plans = append(plans, sitePlan{
			node:   i,
			truth:  expandTruth(n.Truth, len(n.In)),
			inputs: n.In,
			ce:     netlist.Invalid,
		})
	}
	// Place in node-creation order: builders emit nodes in dataflow order,
	// so this keeps producers physically near their consumers.
	sort.Slice(plans, func(a, b int) bool { return plans[a].node < plans[b].node })
	return plans, nil
}

// placeSites assigns physical locations in a snake scan, filling at most
// MaxSitesPerCLB sites per CLB so route-throughs always find room.
func (p *placer) placeSites() error {
	plans, err := p.planSites()
	if err != nil {
		return err
	}
	p.plans = plans
	p.nodeSite = make([]int, len(p.c.Nodes))
	for i := range p.nodeSite {
		p.nodeSite[i] = -1
	}
	g := p.g
	// Design sites occupy only interior CLBs: the edge ring stays free so
	// every device pin's single adjacent CLB can always host the
	// route-through that brings the pin into the fabric.
	intRows, intCols := g.Rows-2, g.Cols-2
	capTotal := intRows * intCols * p.opt.MaxSitesPerCLB
	if len(plans) > capTotal {
		return fmt.Errorf("place: design %q needs %d sites but geometry offers %d (%s)",
			p.c.Name, len(plans), capTotal, g)
	}
	// Lay sites out column-major inside a roughly square block: square
	// blocks keep both dimensions of the dataflow local. A simulated
	// annealing pass then refines the layout for wirelength (see anneal.go)
	// so most connections resolve to direct fabric resources.
	needCLBs := (len(plans) + p.opt.MaxSitesPerCLB - 1) / p.opt.MaxSitesPerCLB
	blockH := intRows
	if side := intSqrt(needCLBs); side < blockH {
		blockH = side
	}
	if blockH < 1 {
		blockH = 1
	}
	clbOf := make([]int, len(plans))
	for pi := range plans {
		clb := pi / p.opt.MaxSitesPerCLB
		c := clb / blockH
		r := clb % blockH
		band := c / intCols
		c = c % intCols
		r += band * blockH
		if r >= intRows {
			r = r % intRows
		}
		clbOf[pi] = (r+1)*g.Cols + (c + 1)
	}
	p.annealPlacement(plans, clbOf, rand.New(rand.NewSource(1)))
	// Commit: assign slot indices within each CLB in plan order.
	slotNext := make([]uint8, g.CLBs())
	for pi := range plans {
		clb := clbOf[pi]
		r, c := clb/g.Cols, clb%g.Cols
		o := int(slotNext[clb])
		slotNext[clb]++
		p.used[clb] |= 1 << uint(o)
		plan := &plans[pi]
		siteIdx := len(p.out.Sites)
		p.out.Sites = append(p.out.Sites, Site{R: r, C: c, O: o, Registered: plan.registered, Node: plan.node})
		p.nodeSite[plan.node] = siteIdx
		sig := p.c.Nodes[plan.node].Out
		p.access[sig] = append(p.access[sig], access{kind: kOut, r: r, c: c, o: o})
		p.out.LUTsUsed++
		if plan.registered {
			p.out.FFsUsed++
		}
	}
	return nil
}

// intSqrt returns ceil(sqrt(n)) for small n.
func intSqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// configureSite writes a planned site's static configuration (truth table,
// FF mode, output mux); input routing happens in routeAll.
func (p *placer) configureSite(siteIdx int, plan *sitePlan) {
	s := p.out.Sites[siteIdx]
	p.b.SetLUT(s.R, s.C, s.O, plan.truth)
	p.b.SetOutMux(s.R, s.C, s.O, plan.registered)
	if plan.registered && plan.ce == netlist.Invalid {
		// Clock always enabled. The default fabric implementation is the
		// half-latch constant (CEHalfLatch = 0), exactly what the Xilinx
		// tools emit and what RadDRC later rewrites.
		p.b.SetFF(s.R, s.C, s.O, plan.init, device.CEHalfLatch, 0, plan.dInv)
	} else if plan.registered {
		// CE select is patched in during routing.
		p.b.SetFF(s.R, s.C, s.O, plan.init, device.CERouted, 0, plan.dInv)
	}
}

// allocRTSlot claims a free LUT site in clbIdx for a route-through.
func (p *placer) allocRTSlot(clbIdx int) (int, bool) {
	m := p.used[clbIdx]
	for o := 0; o < 4; o++ {
		if m&(1<<uint(o)) == 0 {
			p.used[clbIdx] |= 1 << uint(o)
			return o, true
		}
	}
	return 0, false
}

// hasFreeSlot reports whether a CLB has any unoccupied site.
func (p *placer) hasFreeSlot(clbIdx int) bool {
	return bits.OnesCount8(p.used[clbIdx]) < 4
}

// hasHopSlot reports whether a CLB can host a chain hop route-through
// without eating into slots reserved for its adjacent pins.
func (p *placer) hasHopSlot(clbIdx int) bool {
	return bits.OnesCount8(p.used[clbIdx])+int(p.reserved[clbIdx]) < 4
}
