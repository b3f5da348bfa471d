package mission

import (
	"math/bits"
	"sort"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flash"
	"repro/internal/fpga"
	"repro/internal/place"
)

// goldenBlob is the name of the golden configuration image in each board's
// flash store: every device frame concatenated in frame order, so a repair
// fetch is one ReadAt of FrameBytes at frame*FrameBytes.
const goldenBlob = "golden"

// Model is the per-mission precomputation shared read-only by every board
// and worker: the placed design, its static sensitivity profile, the
// golden configuration image, and a flash prototype boards clone.
type Model struct {
	DesignName string
	Geom       device.Geometry

	// Frames and FrameBytes describe the configuration store.
	Frames     int
	FrameBytes int
	TotalBits  int64

	// SensFrac[f] is the fraction of frame f's bits the static cone
	// analysis (fpga.SensitivityMask) classifies potentially sensitive —
	// the probability model for whether a config upset in that frame is
	// functional.
	SensFrac      []float64
	TotalSensBits int64

	// HalfLatchSites and FFs size the hidden-state cross-section.
	HalfLatchSites int
	FFs            int

	// Golden is the concatenated golden frame image; FlashProto is the
	// ECC-protected store holding it, built once and cloned per board.
	Golden     []byte
	FlashProto *flash.Store
	FlashBits  int64

	// Protected marks the frames duplicated by the configuration-
	// redundancy strategy; ProtectedCount is their number.
	Protected      []bool
	ProtectedCount int
}

// BuildModel synthesizes and places the design, derives the per-frame
// sensitivity profile from the golden decode's cone of influence, and
// packs the golden image into an ECC flash prototype. coverage in [0,1] is
// the fraction of potentially-sensitive bits the redundancy strategy
// protects, greediest (most sensitive) frames first.
func BuildModel(designName string, geom device.Geometry, coverage float64) (*Model, error) {
	spec, err := designs.ByName(designName)
	if err != nil {
		return nil, err
	}
	placed, err := place.Place(spec.Build(), geom)
	if err != nil {
		return nil, err
	}
	// One configured device is all the model reads: its half-latch sites
	// and its cone of influence from the design outputs.
	golden := fpga.New(geom)
	if err := golden.FullConfigure(placed.Bitstream()); err != nil {
		return nil, err
	}
	return newModel(designName, placed, golden, placed.OutputNetIDs(), coverage)
}

// newModel derives the model from a placed design, a device fully
// configured with it, and the net IDs of the design's outputs.
func newModel(designName string, placed *place.Placed, golden *fpga.FPGA, outNets []int, coverage float64) (*Model, error) {
	geom := placed.Geom
	m := &Model{
		DesignName: designName,
		Geom:       geom,
		Frames:     geom.TotalFrames(),
		FrameBytes: geom.FrameBytes(),
		TotalBits:  geom.TotalBits(),
		FFs:        geom.CLBs() * device.FFsPerCLB,
	}
	m.HalfLatchSites = len(golden.HalfLatchSites())

	// Per-frame sensitive-bit counts from the static mask. The mask is the
	// triage oracle internal/seu uses: conservative (set bits are
	// *potentially* sensitive), which is the right polarity for an
	// availability model.
	mask, _ := golden.SensitivityMask(outNets)
	frameLen := geom.FrameLength()
	m.SensFrac = make([]float64, m.Frames)
	sensCount := make([]int64, m.Frames)
	for f := 0; f < m.Frames; f++ {
		var n int64
		for _, by := range mask.Frame(f).Data {
			n += int64(bits.OnesCount8(by))
		}
		sensCount[f] = n
		m.TotalSensBits += n
		m.SensFrac[f] = float64(n) / float64(frameLen)
	}

	// Golden image: frames concatenated in order, through the ECC store.
	m.Golden = make([]byte, 0, m.Frames*m.FrameBytes)
	for f := 0; f < m.Frames; f++ {
		m.Golden = append(m.Golden, placed.Memory.Frame(f).Data...)
	}
	capacity := (len(m.Golden) + 63) &^ 63 // word-aligned slack
	dev := flash.New(capacity + 64)
	store := flash.NewStore(dev)
	if err := store.PutBytes(goldenBlob, m.Golden); err != nil {
		return nil, err
	}
	m.FlashProto = store
	m.FlashBits = int64(dev.Capacity()) * 8

	m.buildProtectedSet(sensCount, coverage)
	return m, nil
}

// buildProtectedSet picks the redundancy strategy's duplicated frames:
// frames sorted by sensitive-bit count (descending, index ascending on
// ties) are protected until the cumulative count reaches coverage of the
// total.
func (m *Model) buildProtectedSet(sensCount []int64, coverage float64) {
	m.Protected = make([]bool, m.Frames)
	if coverage <= 0 || m.TotalSensBits == 0 {
		return
	}
	if coverage > 1 {
		coverage = 1
	}
	order := make([]int, m.Frames)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if sensCount[order[a]] != sensCount[order[b]] {
			return sensCount[order[a]] > sensCount[order[b]]
		}
		return order[a] < order[b]
	})
	target := int64(coverage * float64(m.TotalSensBits))
	var cum int64
	for _, f := range order {
		if cum >= target || sensCount[f] == 0 {
			break
		}
		m.Protected[f] = true
		m.ProtectedCount++
		cum += sensCount[f]
	}
}

// FrameOffset returns the golden-image byte offset of frame f.
func (m *Model) FrameOffset(f int32) int64 { return int64(f) * int64(m.FrameBytes) }
