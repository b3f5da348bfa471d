package fpga

import (
	"repro/internal/device"
)

// Clone returns an independent deep copy of the device: configuration
// memory, decoded CLB/BRAM configuration, net/FF/BRAM simulation state,
// half-latch keepers, the permanent-fault overlay, and the evaluation
// order all duplicate, so the clone and the original can be stepped and
// corrupted concurrently without sharing mutable state.
//
// Cloning is the cheap-replication primitive of parallel injection
// campaigns: it skips placement and the full-configure decode entirely,
// costing only the memory copies. Static tables that depend solely on
// geometry (the input-mux candidate table) are shared read-only.
func (f *FPGA) Clone() *FPGA {
	n := &FPGA{
		geom:         f.geom,
		cm:           f.cm.Clone(),
		clbs:         append([]clbCfg(nil), f.clbs...),
		brams:        append([]bramCfg(nil), f.brams...),
		candID:       f.candID, // geometry-derived, immutable after New
		netVal:       append([]bool(nil), f.netVal...),
		lutVal:       append([]bool(nil), f.lutVal...),
		ffVal:        append([]bool(nil), f.ffVal...),
		bramOut:      append([]uint16(nil), f.bramOut...),
		inHL:         append([]bool(nil), f.inHL...),
		llHL:         append([]bool(nil), f.llHL...),
		ceHL:         append([]bool(nil), f.ceHL...),
		unprogrammed: f.unprogrammed,
		order:        append([]int32(nil), f.order...),
		orderStale:   f.orderStale,
		activeLUT:    append([]bool(nil), f.activeLUT...),
		clbActive:    append([]bool(nil), f.clbActive...),
		dirtyCLB:     append([]bool(nil), f.dirtyCLB...),
		dirtyCLBList: append([]int32(nil), f.dirtyCLBList...),
		evalList:     append([]int32(nil), f.evalList...),
		clockList:    append([]int32(nil), f.clockList...),
		evalStale:    f.evalStale,
		cycle:        f.cycle,
		MaxSweeps:    f.MaxSweeps,
		lastSweeps:   f.lastSweeps,
		eventSim:     f.eventSim,
		// Fanout lists are rebuilt lazily on the clone's first settle —
		// cheaper than deep-copying a slice per net.
		fanStale:    true,
		pos:         append([]int32(nil), f.pos...),
		work:        f.work.clone(),
		staleLL:     append([]int32(nil), f.staleLL...),
		staleLLMark: append([]bool(nil), f.staleLLMark...),
	}
	n.bramMem = make([][]uint16, len(f.bramMem))
	for i := range f.bramMem {
		n.bramMem[i] = append([]uint16(nil), f.bramMem[i]...)
	}
	n.bramInterference = append([]bool(nil), f.bramInterference...)
	n.llDrivers = make([][]driverRef, len(f.llDrivers))
	for i := range f.llDrivers {
		n.llDrivers[i] = append([]driverRef(nil), f.llDrivers[i]...)
	}
	if f.llByOut != nil { // nil means "not built yet"; keep that state
		n.llByOut = make([][]int32, len(f.llByOut))
		for i := range f.llByOut {
			n.llByOut[i] = append([]int32(nil), f.llByOut[i]...)
		}
	}
	if f.llByBRAM != nil {
		n.llByBRAM = make([][]int32, len(f.llByBRAM))
		for i := range f.llByBRAM {
			n.llByBRAM[i] = append([]int32(nil), f.llByBRAM[i]...)
		}
	}
	n.stuck = make(map[device.Segment]bool, len(f.stuck))
	for k, v := range f.stuck {
		n.stuck[k] = v
	}
	n.hasStuck = f.hasStuck
	return n
}
