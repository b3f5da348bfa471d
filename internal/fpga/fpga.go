// Package fpga implements a behavioural simulator for the Virtex-like
// device modelled by internal/device. The simulator is strictly
// configuration-driven: on every (re)configuration the configuration memory
// is decoded into LUT truth tables, routing selections, flip-flop modes,
// long-line drivers, and BRAM port bindings, and the clocked simulation
// evaluates only that decoded state. Flipping a configuration bit therefore
// changes device behaviour exactly the way a real SEU does, which is the
// property the paper's fault-injection methodology depends on.
//
// The package also models the parts of the device the paper identifies as
// hidden state: half-latch keepers that supply constants to undriven inputs
// (initialized only by the full-configuration start-up sequence, invisible
// to readback, not restored by partial reconfiguration) and the
// configuration control logic whose upset leaves the device unprogrammed.
package fpga

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// lutCfg is the decoded configuration of one LUT and its input routing.
type lutCfg struct {
	truth uint16
	inSel [device.LUTInputs]uint8
	srl   bool // SRL16 mode: truth bits are live shifting state
}

// ffCfg is the decoded configuration of one flip-flop.
type ffCfg struct {
	init   bool
	ceMode device.CEMode
	ceSel  uint8
	dInv   bool
}

// llDrv is one decoded long-line driver.
type llDrv struct {
	enable bool
	src    uint8 // CLB output 0..3
}

// clbCfg is the decoded configuration of one CLB.
type clbCfg struct {
	lut      [device.LUTsPerCLB]lutCfg
	ff       [device.FFsPerCLB]ffCfg
	outMuxFF [device.OutputsPerCLB]bool
	ll       [device.LLDriversPerCLB]llDrv
}

// bramPortSel is one decoded BRAM port-input source field.
type bramPortSel struct {
	valid  bool
	rowOff uint8
	out    uint8
}

// bramCfg is the decoded configuration of one BRAM block.
type bramCfg struct {
	addr [device.BRAMAddrBits]bramPortSel
	din  [device.BRAMWidth]bramPortSel
	we   bramPortSel
	en   bramPortSel
	dout [device.LongLinesPerCol]struct {
		enable bool
		bit    uint8
	}
}

// driverRef identifies one enabled driver of a long line.
type driverRef struct {
	bram bool
	idx  int // CLB index or BRAM index
	out  int // CLB output 0..3, or BRAM dout bit
}

// FPGA is one simulated device instance.
type FPGA struct {
	geom device.Geometry
	cm   *bitstream.Memory

	// Decoded configuration.
	clbs  []clbCfg
	brams []bramCfg

	// Static routing tables (depend only on geometry).
	candID []int32 // per (clb, slot): dense net ID, or -1 for undriven

	// Simulation state.
	netVal  []bool     // dense nets: CLB outputs, long lines, pins
	lutVal  []bool     // combinational LUT outputs (4 per CLB)
	ffVal   []bool     // flip-flop state (4 per CLB)
	bramMem [][]uint16 // cached content per block (mirrors config memory)
	bramOut []uint16   // BRAM output registers

	// Hidden state the paper's half-latch study revolves around. All are
	// initialized only by the full-configuration start-up sequence.
	inHL []bool // keeper per (clb, slot) — read when the tapped wire is undriven
	llHL []bool // keeper per long line — read when no driver is enabled
	ceHL []bool // keeper per FF — read in CEHalfLatch mode
	// unprogrammed models an SEU in the configuration control logic: the
	// device stops functioning until fully reconfigured (paper §III-C).
	unprogrammed bool

	// Long-line driver lists, rebuilt incrementally on reconfiguration.
	llDrivers [][]driverRef
	// llByOut maps a CLB-output net ID to the long lines it drives, so
	// Settle can refresh lines in the same sweep their driver changes.
	llByOut [][]int32

	// Permanent-fault overlay (opens/shorts) for the BIST study.
	stuck    map[device.Segment]bool
	hasStuck bool

	// Evaluation order (topological over the golden netlist). Stale orders
	// remain correct — Settle iterates to a fixpoint — they just cost more
	// sweeps.
	order      []int32
	orderStale bool
	// activeLUT marks LUTs that can produce anything other than a constant
	// 0 (non-zero truth, SRL mode, or a registered output); Settle skips
	// the rest. clbActive marks CLBs with any non-default state-bearing
	// configuration, the set clock() must process. dirtyCLB forces a CLB
	// through one settle and one clock after reconfiguration so resources
	// leaving the active set still reach their quiescent values.
	activeLUT    []bool
	clbActive    []bool
	dirtyCLB     []bool
	dirtyCLBList []int32
	// evalList is the order filtered to active/dirty LUTs; clockList the
	// active/dirty CLBs. Both rebuilt when evalStale.
	evalList  []int32
	clockList []int32
	evalStale bool

	// bramInterference marks blocks whose content frames were read back
	// while the design clock was running: the next write is lost and the
	// output register is corrupted (paper §II-C, §IV-A).
	bramInterference []bool

	// Event-kernel state (see event.go). fanout maps dense net IDs to the
	// LUTs reading them; work is the dirty-LUT worklist, keyed by position
	// (pos, each LUT's position in order); staleLL the long lines needing an
	// out-of-Settle refresh; llByBRAM a BRAM block's driven lines.
	eventSim    bool
	fanout      [][]int32
	fanStale    bool
	pos         []int32
	work        worklist
	staleLL     []int32
	staleLLMark []bool
	llByBRAM    [][]int32

	// srlScratch is clock()'s reusable buffer of pending SRL16 shifts.
	srlScratch []srlUpdate

	// Cycle counter since the last full configuration or reset.
	cycle int64

	// MaxSweeps bounds the combinational settling loop; corrupted routing
	// can form oscillating loops, which freeze at the bound.
	MaxSweeps int

	lastSweeps int
}

// New returns an unconfigured device of geometry g. All configuration
// memory is zero; the device behaves as a sea of constant-0 logic until a
// full bitstream is loaded.
func New(g device.Geometry) *FPGA {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	f := &FPGA{
		geom:      g,
		cm:        bitstream.NewMemory(g),
		clbs:      make([]clbCfg, g.CLBs()),
		brams:     make([]bramCfg, g.BRAMBlocks()),
		netVal:    make([]bool, g.NumNets()),
		lutVal:    make([]bool, g.CLBs()*device.LUTsPerCLB),
		activeLUT: make([]bool, g.CLBs()*device.LUTsPerCLB),
		clbActive: make([]bool, g.CLBs()),
		dirtyCLB:  make([]bool, g.CLBs()),
		ffVal:     make([]bool, g.CLBs()*device.FFsPerCLB),
		inHL:      make([]bool, g.CLBs()*device.InMuxWays),
		llHL:      make([]bool, device.LongLinesPerRow*g.Rows+device.LongLinesPerCol*g.Cols),
		ceHL:      make([]bool, g.CLBs()*device.FFsPerCLB),
		llDrivers: make([][]driverRef, device.LongLinesPerRow*g.Rows+device.LongLinesPerCol*g.Cols),
		stuck:     make(map[device.Segment]bool),
		MaxSweeps: 64,
		eventSim:  true,
		fanStale:  true,
	}
	// Identity order until the first configuration, so pos and order are
	// always inverse permutations and pending work can be re-keyed.
	luts := g.CLBs() * device.LUTsPerCLB
	f.order = make([]int32, luts)
	f.pos = make([]int32, luts)
	for i := range f.order {
		f.order[i] = int32(i)
		f.pos[i] = int32(i)
	}
	f.work = newWorklist(luts)
	f.staleLLMark = make([]bool, device.LongLinesPerRow*g.Rows+device.LongLinesPerCol*g.Cols)
	f.bramMem = make([][]uint16, g.BRAMBlocks())
	for i := range f.bramMem {
		f.bramMem[i] = make([]uint16, device.BRAMWords)
	}
	f.bramOut = make([]uint16, g.BRAMBlocks())
	f.bramInterference = make([]bool, g.BRAMBlocks())
	f.candID = buildCandidates(g)
	f.unprogrammed = true // no configuration loaded yet
	return f
}

func buildCandidates(g device.Geometry) []int32 {
	out := make([]int32, g.CLBs()*device.InMuxWays)
	i := 0
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			for s := 0; s < device.InMuxWays; s++ {
				out[i] = int32(g.NetID(g.InputCandidate(r, c, s)))
				i++
			}
		}
	}
	return out
}

// Geometry returns the device geometry.
func (f *FPGA) Geometry() device.Geometry { return f.geom }

// ConfigMemory exposes the live configuration memory. The SEU injector and
// the beam model flip bits here; the scrubber reads frames back through the
// ConfigPort instead.
func (f *FPGA) ConfigMemory() *bitstream.Memory { return f.cm }

// Cycle returns the clock cycle count since configuration/reset.
func (f *FPGA) Cycle() int64 { return f.cycle }

// Unprogrammed reports whether the configuration control logic has been
// upset; only a full reconfiguration recovers the device.
func (f *FPGA) Unprogrammed() bool { return f.unprogrammed }

// FullConfigure loads a complete bitstream: all frames are written, the
// configuration is decoded, and the start-up sequence runs — flip-flops
// load their init values and every half-latch keeper is initialized to 1.
func (f *FPGA) FullConfigure(bs *bitstream.Bitstream) error {
	if !bs.IsFull() {
		return fmt.Errorf("fpga: FullConfigure requires a bitstream with a start-up command")
	}
	if _, err := bs.Apply(f.cm); err != nil {
		return err
	}
	f.decodeAll()
	f.startup()
	return nil
}

// PartialConfigure writes the frames of a partial bitstream into
// configuration memory and re-decodes the affected columns. No start-up
// sequence runs: flip-flop state is preserved and half-latch keepers are
// NOT restored — the limitation the paper's half-latch study documents.
func (f *FPGA) PartialConfigure(bs *bitstream.Bitstream) error {
	if bs.IsFull() {
		return fmt.Errorf("fpga: PartialConfigure given a full bitstream; use FullConfigure")
	}
	for _, p := range bs.Packets {
		if p.Op != bitstream.OpWriteFrame {
			continue
		}
		if err := f.cm.WriteFrame(bitstream.Frame{Index: p.Frame, Data: p.Data}); err != nil {
			return err
		}
		f.redecodeFrame(p.Frame)
	}
	return nil
}

// startup runs the full-configuration start-up sequence.
func (f *FPGA) startup() {
	for i := range f.clbs {
		for k := 0; k < device.FFsPerCLB; k++ {
			f.ffVal[i*device.FFsPerCLB+k] = f.clbs[i].ff[k].init
		}
	}
	for i := range f.inHL {
		f.inHL[i] = true
	}
	for i := range f.llHL {
		f.llHL[i] = true
	}
	for i := range f.ceHL {
		f.ceHL[i] = true
	}
	for i := range f.bramOut {
		f.bramOut[i] = 0
		f.bramInterference[i] = false
	}
	f.unprogrammed = false
	f.cycle = 0
	f.rebuildOrder()
	f.invalidateEvents()
	f.Settle()
}

// Reset re-initializes user state (flip-flops to their configured init
// values, BRAM output registers to zero) without touching configuration
// memory or half-latches. This is the "reset the system" step of the
// paper's fault-handling flow (Fig. 4) — note that it does NOT repair
// half-latch upsets.
func (f *FPGA) Reset() {
	for i := range f.clbs {
		for k := 0; k < device.FFsPerCLB; k++ {
			init := f.clbs[i].ff[k].init
			li := i*device.FFsPerCLB + k
			if f.ffVal[li] != init {
				f.ffVal[li] = init
				if f.clbs[i].outMuxFF[k] {
					f.scheduleLUT(int32(li))
				}
			}
		}
	}
	for i := range f.bramOut {
		if f.bramOut[i] != 0 {
			f.bramOut[i] = 0
			f.markBRAMLLStale(i)
		}
	}
	f.cycle = 0
	f.Settle()
}
