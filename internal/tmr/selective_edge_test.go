package tmr

import (
	"testing"

	"repro/internal/board"
	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/place"
)

const maj3Truth uint16 = 0xE8E8

func countVoters(c *netlist.Circuit) int {
	n := 0
	for _, node := range c.Nodes {
		if node.Kind == netlist.NodeLUT && node.Truth == maj3Truth {
			n++
		}
	}
	return n
}

// chainCircuit is the protect-set test fixture:
//
//	node 0: x = in0 XOR in1
//	node 1: q = FF(x)
//	node 2: y = NOT q
//	outputs O = [q, y]
func chainCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("chain")
	in := b.Input("in", 2)
	x := b.LUT(0x6666, in[0], in[1])
	q := b.FF(x, false)
	y := b.LUT(0x5555, q)
	b.Output("O", []netlist.SignalID{q, y})
	return b.MustBuild()
}

// TestSelectiveVoterPlacement pins where Selective inserts majority voters:
// exactly at signals leaving the protected region (an unprotected consumer
// or an output port), memoized per signal, and never on protected-to-
// protected edges — while preserving function for every protect set.
func TestSelectiveVoterPlacement(t *testing.T) {
	cases := []struct {
		name    string
		protect map[int]bool
		voters  int
		ffs     int
	}{
		// No protection: circuit passes through untouched.
		{"none", map[int]bool{}, 0, 1},
		// x leaves the region into the unprotected FF: one voter.
		{"lut-only", map[int]bool{0: true}, 1, 1},
		// q feeds both the NOT and the output port: one memoized voter.
		{"ff-only", map[int]bool{1: true}, 1, 3},
		// q→y stays inside the region (no voter); q and y each cross to an
		// output port: two voters.
		{"ff-and-not", map[int]bool{1: true, 2: true}, 2, 3},
		// Fully protected: only the two output-port voters remain.
		{"all", map[int]bool{0: true, 1: true, 2: true}, 2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := chainCircuit(t)
			s, err := Selective(c, tc.protect)
			if err != nil {
				t.Fatal(err)
			}
			if got := countVoters(s); got != tc.voters {
				t.Errorf("voters = %d, want %d", got, tc.voters)
			}
			if got := s.Stats().FFs; got != tc.ffs {
				t.Errorf("FFs = %d, want %d", got, tc.ffs)
			}
			simA, err := netlist.NewSimulator(c)
			if err != nil {
				t.Fatal(err)
			}
			simB, err := netlist.NewSimulator(s)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				v := uint64(i * 7 % 4)
				simA.SetInput("in", v)
				simB.SetInput("in", v)
				simA.Step()
				simB.Step()
				va, _ := simA.Output("O")
				vb, _ := simB.Output("O")
				if va != vb {
					t.Fatalf("cycle %d: plain=%d selective=%d", i, va, vb)
				}
			}
		})
	}
}

// TestSelectiveVoterMinority exercises the voter on the fabric: with one FF
// copy of a protected triple corrupted (a minority), the voted output must
// stay correct; with two copies corrupted (a majority), the voter must
// produce the wrong value. This is the exact failure-masking contract
// partial TMR buys for the protected cross-section.
func TestSelectiveVoterMinority(t *testing.T) {
	b := netlist.NewBuilder("vote1")
	in := b.Input("in", 1)
	d := b.Buf(in[0])
	q := b.FF(d, false)
	b.Output("O", []netlist.SignalID{q})
	c := b.MustBuild()

	s, err := Selective(c, map[int]bool{1: true}) // protect the FF
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().FFs; got != 3 {
		t.Fatalf("FF copies = %d, want 3", got)
	}
	p, err := place.Place(s, device.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	bd, err := board.New(p, 11)
	if err != nil {
		t.Fatal(err)
	}

	// Locate the three placed FF copies.
	var ffSites []place.Site
	for _, site := range p.Sites {
		if site.Node >= 0 && s.Nodes[site.Node].Kind == netlist.NodeFF {
			ffSites = append(ffSites, site)
		}
	}
	if len(ffSites) != 3 {
		t.Fatalf("placed FF copies = %d, want 3", len(ffSites))
	}

	bd.StepN(4)
	if !bd.Match() {
		t.Fatal("boards out of lock-step before any fault")
	}

	flip := func(site place.Site) {
		v := bd.DUT.FFValue(site.R, site.C, site.O)
		bd.DUT.SetFFValue(site.R, site.C, site.O, !v)
	}

	// Minority: one corrupted copy is outvoted.
	flip(ffSites[0])
	bd.DUT.Settle()
	if !bd.Match() {
		t.Fatal("voter failed to mask a single corrupted copy")
	}
	// The upset also washes out at the next clock (the copy reloads from
	// the shared D input), so lock-step continues.
	if mism, _ := bd.StepN(4); mism != 0 {
		t.Fatalf("%d mismatching cycles after masked upset", mism)
	}

	// Majority: two corrupted copies outvote the survivor.
	flip(ffSites[0])
	flip(ffSites[1])
	bd.DUT.Settle()
	if bd.Match() {
		t.Fatal("voter produced the correct value with two of three copies corrupted")
	}
	// State upsets are transient: the next clock reloads all copies.
	if mism, _ := bd.StepN(4); mism != 0 {
		t.Fatalf("%d mismatching cycles after transient majority upset", mism)
	}
}
