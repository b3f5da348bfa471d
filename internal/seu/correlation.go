package seu

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/place"
)

// The paper (§III-A): "By repeated exhaustive tests, it is possible to
// correlate a single-bit upset in the bitstream with an output error. Such
// a correlation table was developed for our example designs. High
// correlation between specific locations in the bit stream and output area
// helps to characterize the sensitive cross-section of the design.
// Selective Triple Module Redundancy (TMR) or other mitigation techniques
// can then be selectively applied to the sensitive cross section."

// CorrelationEntry links one sensitive configuration bit to the output bits
// its upset corrupted first.
type CorrelationEntry struct {
	Addr    device.BitAddr
	Kind    device.BitKind
	Outputs []int // indices into the design's flattened output vector
}

// CorrelationTable summarizes bit->output correlation for a campaign.
type CorrelationTable struct {
	Entries []CorrelationEntry
	// ByOutput counts, for each output bit, how many sensitive
	// configuration bits can corrupt it.
	ByOutput map[int]int
}

// Correlate builds the correlation table from a report's collected
// sensitive bits; every campaign collects them.
func Correlate(rep *Report) *CorrelationTable {
	t := &CorrelationTable{ByOutput: make(map[int]int)}
	for _, bit := range rep.SensitiveBits {
		t.Entries = append(t.Entries, CorrelationEntry{
			Addr: bit.Addr, Kind: bit.Kind, Outputs: bit.FailedOutputs,
		})
		for _, o := range bit.FailedOutputs {
			t.ByOutput[o]++
		}
	}
	return t
}

// HotOutputs returns output-bit indices ordered by how many sensitive bits
// corrupt them (most-exposed first).
func (t *CorrelationTable) HotOutputs() []int {
	outs := make([]int, 0, len(t.ByOutput))
	for o := range t.ByOutput {
		outs = append(outs, o)
	}
	sort.Slice(outs, func(i, j int) bool {
		if t.ByOutput[outs[i]] != t.ByOutput[outs[j]] {
			return t.ByOutput[outs[i]] > t.ByOutput[outs[j]]
		}
		return outs[i] < outs[j]
	})
	return outs
}

func (t *CorrelationTable) String() string {
	return fmt.Sprintf("correlation table: %d sensitive bits, %d output bits affected",
		len(t.Entries), len(t.ByOutput))
}

// SensitiveNodes maps a campaign's sensitive configuration bits back to the
// netlist nodes whose fabric resources they configure — the design's
// sensitive cross-section, expressed in terms the mitigation tools
// (selective TMR) consume. Long-line driver bits are attributed to every
// design node in their CLB (the line serves the whole CLB).
func SensitiveNodes(p *place.Placed, rep *Report) map[int]bool {
	g := p.Geom
	// Site lookup: (r, c, o) -> netlist node.
	type loc struct{ r, c, o int }
	siteNode := make(map[loc]int)
	for _, s := range p.Sites {
		if s.Node >= 0 {
			siteNode[loc{s.R, s.C, s.O}] = s.Node
		}
	}
	nodes := make(map[int]bool)
	addSite := func(r, c, o int) {
		if n, ok := siteNode[loc{r, c, o}]; ok {
			nodes[n] = true
		}
	}
	for _, bit := range rep.SensitiveBits {
		info := g.Classify(bit.Addr)
		switch info.Kind {
		case device.KindLUT:
			if info.CB >= device.CBLUTModeBase {
				addSite(info.R, info.C, info.CB-device.CBLUTModeBase)
			} else {
				addSite(info.R, info.C, (info.CB-device.CBLUTBase)/device.LUTBits)
			}
		case device.KindInMux:
			in := (info.CB - device.CBInMuxBase) / device.InMuxSelBits
			addSite(info.R, info.C, in/device.LUTInputs)
		case device.KindFF:
			addSite(info.R, info.C, (info.CB-device.CBFFBase)/device.FFCfgBits)
		case device.KindOutMux:
			addSite(info.R, info.C, info.CB-device.CBOutMuxBase)
		case device.KindLongLine:
			for o := 0; o < device.OutputsPerCLB; o++ {
				addSite(info.R, info.C, o)
			}
		}
	}
	return nodes
}
