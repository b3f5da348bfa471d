package place

import (
	"math"
	"math/rand"

	"repro/internal/device"
	"repro/internal/netlist"
)

// Simulated-annealing placement refinement. The constructive block layout
// gives a reasonable start; annealing then minimizes routed wirelength so
// most connections resolve to direct fabric resources instead of
// route-through chains. The cost model mirrors the fabric: neighbour and
// hex-south connections are free, vertical distance southward is discounted
// by the hex wires, and everything else pays roughly one route-through per
// hop.

// annealEdge is one producer->consumer connection with the producer
// identified either by plan index or by a fixed pin location.
type annealEdge struct {
	srcPlan int // -1 when the source is a pin
	srcPos  int // packed pin edge-CLB location when srcPlan < 0
	dstPlan int
}

// edgeCost estimates the routing cost of a connection whose sink lies vr
// rows south and hc columns east of its source. Costs are small integers,
// so the annealer's sums of them are exact.
func edgeCost(vr, hc int) int {
	if vr == 0 && hc == 0 {
		return 0
	}
	if hc == 0 && vr == device.HexDistance {
		return 0 // hex wire
	}
	if (abs(vr) == 1 && hc == 0) || (vr == 0 && abs(hc) == 1) {
		return 0 // direct neighbour
	}
	// Southward vertical travel rides hex wires; northward pays per row.
	vcost := -vr
	if vr > 0 {
		vcost = vr/device.HexDistance + vr%device.HexDistance
	}
	return vcost + abs(hc)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// annealPlacement refines clbOf (the CLB index per plan) in place.
func (p *placer) annealPlacement(plans []sitePlan, clbOf []int, rng *rand.Rand) {
	g := p.g
	if len(plans) < 2 {
		return
	}
	// Positions are packed as r*pitch + c (see pos below).
	pitch := 2 * g.Cols
	// Build edges.
	planOfNode := make([]int, len(p.c.Nodes))
	for i := range planOfNode {
		planOfNode[i] = -1
	}
	for pi := range plans {
		planOfNode[plans[pi].node] = pi
	}
	var edges []annealEdge
	addEdge := func(sig netlist.SignalID, dstPlan int) {
		if drv := p.driver[sig]; drv >= 0 {
			if sp := planOfNode[drv]; sp >= 0 && sp != dstPlan {
				edges = append(edges, annealEdge{srcPlan: sp, dstPlan: dstPlan})
			}
			return
		}
		if pin, ok := p.sigPin[sig]; ok {
			if er, ec, ok2 := p.edgeCLBOf(pin); ok2 {
				edges = append(edges, annealEdge{srcPlan: -1, srcPos: er*pitch + ec, dstPlan: dstPlan})
			}
		}
	}
	for pi := range plans {
		for _, sig := range plans[pi].inputs {
			addEdge(sig, pi)
		}
		if plans[pi].ce != netlist.Invalid {
			addEdge(plans[pi].ce, pi)
		}
	}
	// Per-plan edge index for incremental cost evaluation.
	byPlan := make([][]int, len(plans))
	for ei, e := range edges {
		byPlan[e.dstPlan] = append(byPlan[e.dstPlan], ei)
		if e.srcPlan >= 0 {
			byPlan[e.srcPlan] = append(byPlan[e.srcPlan], ei)
		}
	}
	// Each plan's position is packed as r*pitch + c with a pitch of twice
	// the column count, so the offset between two positions names (vr, hc)
	// uniquely and one table lookup prices an edge. pos is kept in step
	// with clbOf. occupants[clb] lists the plans in each CLB in ascending
	// plan order: a swap partner drawn from it is the one a scan of every
	// plan would find. The initial layout's row wrap can put more than
	// MaxSitesPerCLB plans in one CLB, so the lists are unbounded.
	zero := (g.Rows-1)*pitch + g.Cols - 1 // table index of offset (0, 0)
	costOf := make([]int32, (2*g.Rows-1)*pitch)
	for vr := 1 - g.Rows; vr < g.Rows; vr++ {
		for hc := 1 - g.Cols; hc < g.Cols; hc++ {
			costOf[zero+vr*pitch+hc] = int32(edgeCost(vr, hc))
		}
	}
	pos := make([]int, len(plans))
	occupants := make([][]int32, g.CLBs())
	for pi, clb := range clbOf {
		pos[pi] = clb/g.Cols*pitch + clb%g.Cols
		occupants[clb] = append(occupants[clb], int32(pi))
	}
	cost := func(ei int) int {
		e := &edges[ei]
		sp := e.srcPos
		if e.srcPlan >= 0 {
			sp = pos[e.srcPlan]
		}
		return int(costOf[zero+pos[e.dstPlan]-sp])
	}
	planCost := func(pi int) int {
		t := 0
		for _, ei := range byPlan[pi] {
			t += cost(ei)
		}
		return t
	}
	// accept draws a uniform variate only for an uphill move, so the RNG
	// sequence depends on nothing but the costs.
	accept := func(before, after int, temp float64) bool {
		return after <= before || rng.Float64() < math.Exp(float64(before-after)/temp)
	}

	intRows, intCols := g.Rows-2, g.Cols-2
	n := len(plans)
	iters := 220 * n
	temp := 2.5
	cool := math.Pow(0.02/temp, 1.0/float64(iters))
	for it := 0; it < iters; it++ {
		pi := rng.Intn(n)
		old := clbOf[pi]
		tr := rng.Intn(intRows) + 1
		tc := rng.Intn(intCols) + 1
		target := tr*g.Cols + tc
		if target == old {
			temp *= cool
			continue
		}
		op, tp := pos[pi], tr*pitch+tc
		if here := occupants[target]; len(here) >= p.opt.MaxSitesPerCLB {
			// Swap with a random plan living there.
			pj := int(here[rng.Intn(len(here))])
			before := planCost(pi) + planCost(pj)
			pos[pi], pos[pj] = tp, op
			after := planCost(pi) + planCost(pj)
			if accept(before, after, temp) {
				clbOf[pi], clbOf[pj] = target, old
				replaceOccupant(occupants[target], int32(pj), int32(pi))
				replaceOccupant(occupants[old], int32(pi), int32(pj))
			} else {
				pos[pi], pos[pj] = op, tp
			}
		} else {
			before := planCost(pi)
			pos[pi] = tp
			after := planCost(pi)
			if accept(before, after, temp) {
				clbOf[pi] = target
				// Plan n sorts after every real plan: it carries pi out
				// of the old list's tail and into the target list's.
				replaceOccupant(occupants[old], int32(pi), int32(n))
				occupants[old] = occupants[old][:len(occupants[old])-1]
				occupants[target] = append(occupants[target], int32(n))
				replaceOccupant(occupants[target], int32(n), int32(pi))
			} else {
				pos[pi] = op
			}
		}
		temp *= cool
	}
}

// replaceOccupant overwrites plan out with plan in in an ascending
// occupant list and moves in to its sorted position.
func replaceOccupant(list []int32, out, in int32) {
	i := 0
	for list[i] != out {
		i++
	}
	list[i] = in
	for ; i > 0 && list[i-1] > in; i-- {
		list[i], list[i-1] = list[i-1], in
	}
	for ; i+1 < len(list) && list[i+1] < in; i++ {
		list[i], list[i+1] = list[i+1], in
	}
}
