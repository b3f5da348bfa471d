package place

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
)

// memoryHash returns the SHA-256 of a placed design's configuration
// memory, frame by frame in address order.
func memoryHash(p *Placed) string {
	h := sha256.New()
	for i := 0; i < p.Geom.TotalFrames(); i++ {
		h.Write(p.Memory.Frame(i).Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// placementHashes pins the configuration memory the flow produces for the
// catalog. Every golden corpus and bench digest rests on these bytes, so a
// speed-up of placement or routing must leave them unchanged. An empty hash
// means the design does not fit the geometry and placement must fail.
var placementHashes = []struct{ geom, design, hash string }{
	{"tiny", "LFSR 18", "ce170a912add0b55ef17f94adcf87401421b348b5f2226eb1316aa56cf24acd6"},
	{"tiny", "LFSR 36", ""},
	{"tiny", "LFSR 54", ""},
	{"tiny", "LFSR 72", ""},
	{"tiny", "VMULT 18", "148dc71525e55aac67d77235acb9c4f0dd1e28487fcb1c85dfe9ce92c23017f0"},
	{"tiny", "VMULT 36", "5431733f8220cbb6d2157c47f38f9df0e9645a068b2ba9826ea2b14e9efa2832"},
	{"tiny", "VMULT 54", ""},
	{"tiny", "VMULT 72", ""},
	{"tiny", "MULT 12", "148dc71525e55aac67d77235acb9c4f0dd1e28487fcb1c85dfe9ce92c23017f0"},
	{"tiny", "MULT 24", "4b9fa875e1371af197881c289517bc3c3074e5940d6c89f92010eed17ff53208"},
	{"tiny", "MULT 36", ""},
	{"tiny", "MULT 48", ""},
	{"tiny", "54 Multiply-Add", ""},
	{"tiny", "36 Counter/Adder", "88b225d7e9dcd3340c1d5ec486fd7751283f93f1454761dea063602a28cdf985"},
	{"tiny", "LFSR Multiplier", "b767c4d22a002a5a188548e4206fbc38ae0ce05790571931eb27460c72779599"},
	{"tiny", "Filter Preproc.", ""},
	{"small", "LFSR 18", "749522e13ad613802654e1d45bd9a2490188e7879be2a00451f5b4acf45ad506"},
	{"small", "LFSR 36", "c1b79e4381c99d8e360d88dc666172600dc03035849081b2a0d48bc1edf0a3ee"},
	{"small", "LFSR 54", "07ac78ef44ca3f5e462c81395a06e50d8edd9402ee91babb5addd888dbd016ce"},
	{"small", "LFSR 72", "528f12ac50db8601fe96e38e5305b8afa5d0253c5bde0337b715e5bcd33ab0e9"},
	{"small", "VMULT 18", "96ff5be35793a904c46902614ac9fa5bb21aae6b053d314bace080a7ff4d42ba"},
	{"small", "VMULT 36", "89978b947d390a56d803c2ae0f4a66d62abfd5bafcef34e2538d4ccc51f83566"},
	{"small", "VMULT 54", "dc43229cf274d229ee444933c5b6e6cb67a6bf58185dd234119d3ba8f43e99df"},
	{"small", "VMULT 72", "b9e0ff3f687c2564666e2d55d0251f65f17dbddfb8c7bc09f6b180323a84d2ae"},
	{"small", "MULT 12", "96ff5be35793a904c46902614ac9fa5bb21aae6b053d314bace080a7ff4d42ba"},
	{"small", "MULT 24", "73eac130ddeff354055832cbb5e1115f10a0c3f078b6204c6be76532b59e4fcd"},
	{"small", "MULT 36", "16dfb8a6871d34852e778cdd1131c504b18c865b984b47960844192426a56d6b"},
	{"small", "MULT 48", "38d6e4b840f87e49d0935fd92aca820a6545dfa058844e6277ee669b887f8635"},
	{"small", "54 Multiply-Add", "b431b6253259042fe66fd00791c9e8849a343c7fed9a430c7ed8ca0f417783ca"},
	{"small", "36 Counter/Adder", "c7d124bc10dbd028e5cac6108964a0c1d0dceb9df91d3d58694b212eae3d741c"},
	{"small", "LFSR Multiplier", "2ed0e12cb53e6b6b7e637435d57f2576fccd56ceba899ac680e99297566dd4e2"},
	{"small", "Filter Preproc.", "cfebf9c1d01873b6bc4b0d48f131f4ad16f471d43b54b95ad65213199a3b8600"},
	{"xqvr1000", "LFSR 72", "68f66602aa87176a74160996f87f81f2da8d7d6914822a6fb48964b6246ad97d"},
	{"xqvr1000", "VMULT 72", "e36043892b081d3cc2c5599eeb1bc4112338fff22a2c47fcfb5c47919e9eddfc"},
}

func TestPlacementHashesPinned(t *testing.T) {
	geoms := map[string]device.Geometry{
		"tiny": device.Tiny(), "small": device.Small(), "xqvr1000": device.XQVR1000(),
	}
	pinned := make(map[string]bool)
	for _, tc := range placementHashes {
		pinned[tc.geom+"/"+tc.design] = true
		s, err := designs.ByName(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Place(s.Build(), geoms[tc.geom])
		switch {
		case tc.hash == "" && err == nil:
			t.Errorf("%s on %s: placed, want a placement error", tc.design, tc.geom)
		case tc.hash != "" && err != nil:
			t.Errorf("%s on %s: %v", tc.design, tc.geom, err)
		case err == nil:
			if got := memoryHash(p); got != tc.hash {
				t.Errorf("%s on %s: memory hash %s, want %s", tc.design, tc.geom, got, tc.hash)
			}
		}
	}
	for _, s := range designs.Catalog() {
		for _, g := range []string{"tiny", "small"} {
			if !pinned[g+"/"+s.Name] {
				t.Errorf("%s on %s has no pinned hash", s.Name, g)
			}
		}
	}
}
