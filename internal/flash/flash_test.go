package flash

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/device"
	"repro/internal/fpga"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(4096)
	data := []byte("the golden configuration frame data for device 1")
	if err := d.Write(13, data); err != nil {
		t.Fatal(err)
	}
	back, err := d.Read(13, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Fatalf("round trip mismatch: %q", back)
	}
}

func TestBoundsChecking(t *testing.T) {
	d := New(64)
	if err := d.Write(60, make([]byte, 8)); err == nil {
		t.Error("overflowing write accepted")
	}
	if err := d.Write(-1, []byte{1}); err == nil {
		t.Error("negative write accepted")
	}
	if _, err := d.Read(60, 8); err == nil {
		t.Error("overflowing read accepted")
	}
}

func TestECCCorrectsSingleBitUpsets(t *testing.T) {
	d := New(1 << 12)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	rng.Read(data)
	if err := d.Write(0, data); err != nil {
		t.Fatal(err)
	}
	// 40 separate single-bit upsets in distinct words, each corrected on
	// read.
	for i := 0; i < 40; i++ {
		word := int64(i * 8)
		d.UpsetBit(word*8 + int64(rng.Intn(64)))
	}
	back, err := d.Read(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("byte %d not corrected", i)
		}
	}
	if d.Stats().CorrectedSingles < 40 {
		t.Errorf("corrected %d singles, want >= 40", d.Stats().CorrectedSingles)
	}
	// Scrub-on-read: a second read needs no corrections.
	before := d.Stats().CorrectedSingles
	if _, err := d.Read(0, len(data)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().CorrectedSingles != before {
		t.Error("corrected word was not scrubbed back")
	}
}

func TestECCDetectsDoubleBitUpsets(t *testing.T) {
	d := New(256)
	if err := d.Write(0, []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	d.UpsetBit(3)
	d.UpsetBit(17)
	if _, err := d.Read(0, 8); err == nil {
		t.Fatal("double-bit error not detected")
	}
	if d.Stats().DetectedDoubles == 0 {
		t.Error("double error not counted")
	}
}

// secdedRef is the bit-at-a-time Hamming(72,64) encoder, the reference
// secded's parity masks must agree with.
func secdedRef(w uint64) uint8 {
	var code uint8
	for p := 0; p < 7; p++ {
		var parity uint8
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 && dataPos[i]&(1<<uint(p)) != 0 {
				parity ^= 1
			}
		}
		code |= parity << uint(p)
	}
	overall := uint8(bits.OnesCount64(w)&1) ^ uint8(bits.OnesCount8(code&0x7F)&1)
	return code | overall<<7
}

func TestSECDEDMatchesReference(t *testing.T) {
	if secded(0) != 0 {
		t.Fatalf("secded(0) = %#x; New relies on the code of a zero word being 0", secded(0))
	}
	check := func(w uint64) {
		t.Helper()
		if got, want := secded(w), secdedRef(w); got != want {
			t.Fatalf("secded(%#x) = %#x, reference %#x", w, got, want)
		}
	}
	// Every word of weight 0, 1 and 2.
	check(0)
	for i := 0; i < 64; i++ {
		check(1 << uint(i))
		for j := i + 1; j < 64; j++ {
			check(1<<uint(i) | 1<<uint(j))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1<<20; k++ {
		check(rng.Uint64())
	}
}

// flipCodeword flips codeword position pos of word i: 0..63 are the data
// bits, 64..70 the seven stored parity bits and 71 the overall-parity bit.
func flipCodeword(d *Device, i, pos int) {
	if pos < 64 {
		d.words[i] ^= 1 << uint(pos)
		return
	}
	d.ecc[i] ^= 1 << uint(pos-64)
}

func TestSECDEDProperty(t *testing.T) {
	// Any single-bit flip of any word is corrected exactly.
	f := func(w uint64, pos uint8) bool {
		d := New(64)
		d.writeWord(0, w)
		d.words[0] ^= 1 << uint(pos%64)
		got, err := d.readWord(0)
		return err == nil && got == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(2))
	words := []uint64{0, ^uint64(0), rng.Uint64(), rng.Uint64()}
	var want [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(want[:], w)
		// A flip at each of the 72 codeword positions is corrected, counted
		// once and scrubbed back.
		for pos := 0; pos < 72; pos++ {
			d := New(64)
			d.writeWord(0, w)
			flipCodeword(d, 0, pos)
			for pass := 0; pass < 2; pass++ {
				got, err := d.Read(0, 8)
				if err != nil || !bytes.Equal(got, want[:]) {
					t.Fatalf("word %#x, flip at %d, pass %d: Read = %x, %v", w, pos, pass, got, err)
				}
			}
			if st := d.Stats(); st.CorrectedSingles != 1 || st.DetectedDoubles != 0 || st.Reads != 16 {
				t.Fatalf("word %#x, flip at %d: stats %+v, want 1 correction over 16 byte reads", w, pos, st)
			}
		}
		// Every pair of flips within the word is detected as a double.
		for a := 0; a < 72; a++ {
			for b := a + 1; b < 72; b++ {
				d := New(64)
				d.writeWord(0, w)
				flipCodeword(d, 0, a)
				flipCodeword(d, 0, b)
				if _, err := d.Read(0, 8); err == nil {
					t.Fatalf("word %#x, flips at %d and %d: double error not detected", w, a, b)
				}
				if st := d.Stats(); st.DetectedDoubles != 1 || st.CorrectedSingles != 0 {
					t.Fatalf("word %#x, flips at %d and %d: stats %+v, want one detected double", w, a, b, st)
				}
			}
		}
	}
}

// readRef is the byte-at-a-time read Read must reproduce: one decode and
// one Stats.Reads per byte, stopping at the first byte of a bad word.
func readRef(d *Device, offset int64, n int) ([]byte, error) {
	out := make([]byte, n)
	for k := 0; k < n; k++ {
		pos := offset + int64(k)
		d.stats.Reads++
		w, err := d.readWord(int(pos >> 3))
		if err != nil {
			return nil, err
		}
		out[k] = byte(w >> (uint(pos&7) * 8))
	}
	return out, nil
}

// eccFixture returns a 256-byte device of random data in which word 0
// holds a single data-bit upset, word 2 a double, word 4 a single
// parity-bit upset and word 5 an overall-bit upset; words 1 and 3 are clean.
func eccFixture(t *testing.T) *Device {
	t.Helper()
	base := New(256)
	data := make([]byte, 256)
	rand.New(rand.NewSource(3)).Read(data)
	if err := base.Write(0, data); err != nil {
		t.Fatal(err)
	}
	base.UpsetBit(0*64 + 13)
	base.UpsetBit(2*64 + 5)
	base.UpsetBit(2*64 + 40)
	flipCodeword(base, 4, 66)
	flipCodeword(base, 5, 71)
	return base
}

// eccExtents visits unaligned offsets and lengths of 1-17 bytes across the
// fixture's clean, corrected and double-error words, then whole-word ranges
// past the double.
func eccExtents(visit func(off int64, n int)) {
	for off := int64(0); off < 56; off++ {
		for n := 1; n <= 17; n++ {
			visit(off, n)
		}
	}
	for off := int64(24); off < 48; off += 8 {
		visit(off, 24)
	}
}

func TestReadMatchesByteLoop(t *testing.T) {
	base := eccFixture(t)
	compare := func(off int64, n int) (Stats, error) {
		t.Helper()
		got, ref := base.Clone(), base.Clone()
		gotB, gotErr := got.Read(off, n)
		refB, refErr := readRef(ref, off, n)
		if (gotErr == nil) != (refErr == nil) || !bytes.Equal(gotB, refB) {
			t.Fatalf("Read(%d, %d) = %x, %v; byte loop %x, %v", off, n, gotB, gotErr, refB, refErr)
		}
		if got.Stats() != ref.Stats() {
			t.Fatalf("Read(%d, %d) stats %+v; byte loop %+v", off, n, got.Stats(), ref.Stats())
		}
		return got.Stats(), gotErr
	}
	eccExtents(func(off int64, n int) { compare(off, n) })
	// A corrected single in the head word.
	if st, err := compare(3, 10); err != nil || st.CorrectedSingles != 1 || st.Reads != 10 {
		t.Fatalf("Read(3, 10): stats %+v, %v; want one correction over 10 byte reads", st, err)
	}
	// A double in the third word: Reads stops at that word's first byte.
	if st, err := compare(3, 20); err == nil || st.DetectedDoubles != 1 || st.Reads != 13+1 {
		t.Fatalf("Read(3, 20): stats %+v, %v; want a detected double after 14 byte reads", st, err)
	}
}

// TestVerifyMatchesRead checks that Verify leaves the device exactly as Read
// does (stats, scrubbed-back corrections, double-error verdict) over Read's
// own test grid, and that it allocates nothing.
func TestVerifyMatchesRead(t *testing.T) {
	base := eccFixture(t)
	eccExtents(func(off int64, n int) {
		got, ref := base.Clone(), base.Clone()
		gotErr := got.Verify(off, n)
		_, refErr := ref.Read(off, n)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("Verify(%d, %d) = %v; Read %v", off, n, gotErr, refErr)
		}
		if got.Stats() != ref.Stats() {
			t.Fatalf("Verify(%d, %d) stats %+v; Read %+v", off, n, got.Stats(), ref.Stats())
		}
		for i := range got.words {
			if got.words[i] != ref.words[i] || got.ecc[i] != ref.ecc[i] {
				t.Fatalf("Verify(%d, %d) left word %d as %x/%02x; Read %x/%02x",
					off, n, i, got.words[i], got.ecc[i], ref.words[i], ref.ecc[i])
			}
		}
	})
	if err := base.Verify(250, 7); err == nil {
		t.Error("Verify past capacity succeeded")
	}
	clean := New(256)
	if allocs := testing.AllocsPerRun(10, func() { _ = clean.Verify(3, 200) }); allocs != 0 {
		t.Errorf("Verify allocates %.0f times per call", allocs)
	}

	// VerifyAt resolves extents as ReadAt does.
	st := NewStore(New(256))
	if err := st.PutBytes("blob", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	st.Device().UpsetBit(2*64 + 9)
	if err := st.VerifyAt("blob", 16, 8); err != nil || st.Device().Stats().CorrectedSingles != 1 {
		t.Errorf("VerifyAt over an upset word: %v, stats %+v", err, st.Device().Stats())
	}
	if err := st.VerifyAt("blob", 36, 8); err == nil {
		t.Error("VerifyAt past the extent succeeded")
	}
	if err := st.VerifyAt("other", 0, 1); err == nil {
		t.Error("VerifyAt of an unknown blob succeeded")
	}
}

func TestStoreHoldsTwentyConfigurations(t *testing.T) {
	// The flight module stores "more than twenty configuration bit streams"
	// — check the capacity arithmetic holds for the flight geometry.
	g := device.XQVR1000()
	perBS := int64(len(fpga.NewConfigBuilder(g).FullBitstream().Marshal()))
	if n := int64(FlightFlashBytes) / perBS; n < 20 {
		t.Errorf("flight flash holds only %d full bitstreams (each %d bytes)", n, perBS)
	}
}

func TestStorePutGet(t *testing.T) {
	g := device.Tiny()
	dev := New(1 << 20)
	s := NewStore(dev)
	b := fpga.NewConfigBuilder(g)
	b.SetLUT(2, 2, 0, fpga.TruthNot)
	bs := b.FullBitstream()
	if err := s.Put("radio-v1", bs); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("radio-v1", bs); err == nil {
		t.Error("duplicate name accepted")
	}
	back, err := s.Get("radio-v1", g)
	if err != nil {
		t.Fatal(err)
	}
	m1 := bitstream.NewMemory(g)
	m2 := bitstream.NewMemory(g)
	if _, err := bs.Apply(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := back.Apply(m2); err != nil {
		t.Fatal(err)
	}
	if !m1.Equal(m2) {
		t.Fatal("stored bitstream corrupted")
	}
	if _, err := s.Get("ghost", g); err == nil {
		t.Error("ghost lookup succeeded")
	}
	if len(s.Names()) != 1 || s.Used() <= 0 || s.Free() <= 0 {
		t.Error("directory accounting broken")
	}
}

func TestStoreSurvivesFlashUpset(t *testing.T) {
	// An SEU in the flash while a golden bitstream is stored: ECC corrects
	// it transparently on fetch — the §II design intent.
	g := device.Tiny()
	dev := New(1 << 20)
	s := NewStore(dev)
	b := fpga.NewConfigBuilder(g)
	b.SetLUT(1, 1, 1, fpga.TruthXor2)
	if err := s.Put("golden", b.FullBitstream()); err != nil {
		t.Fatal(err)
	}
	dev.UpsetBit(int64(1000)) // inside the stored stream
	back, err := s.Get("golden", g)
	if err != nil {
		t.Fatal(err)
	}
	m := bitstream.NewMemory(g)
	if _, err := back.Apply(m); err != nil {
		t.Fatal(err)
	}
	want := b.Memory()
	if !m.Equal(want) {
		t.Fatal("flash upset leaked into the fetched bitstream")
	}
	if dev.Stats().CorrectedSingles == 0 {
		t.Error("ECC correction not recorded")
	}
}

func TestDeviceCloneIndependent(t *testing.T) {
	d := New(1024)
	if err := d.Write(0, []byte("golden frame data, word aligned..")); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	// Upset the clone heavily; the original must stay clean.
	c.UpsetBit(8)
	c.UpsetBit(9) // double error in word 0 of the clone
	if _, err := d.Read(0, 33); err != nil {
		t.Fatalf("original corrupted by clone upsets: %v", err)
	}
	if _, err := c.Read(0, 8); err == nil {
		t.Fatal("clone double-bit error went undetected")
	}
	if d.Stats().DetectedDoubles != 0 {
		t.Error("clone stats leaked into the original")
	}
}

func TestDeviceCloneCarriesLatentUpsets(t *testing.T) {
	d := New(256)
	if err := d.Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	d.UpsetBit(5) // latent single-bit upset, not yet read
	c := d.Clone()
	if _, err := c.Read(0, 8); err != nil {
		t.Fatal(err)
	}
	if c.Stats().CorrectedSingles != 1 {
		t.Errorf("clone corrected %d singles, want 1 (latent upset must be copied)", c.Stats().CorrectedSingles)
	}
}

func TestStoreReadAt(t *testing.T) {
	s := NewStore(New(4096))
	blob := make([]byte, 300)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	if err := s.PutBytes("frames", blob); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes("frames", blob); err == nil {
		t.Fatal("duplicate PutBytes accepted")
	}
	got, err := s.ReadAt("frames", 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[30:60]) {
		t.Fatalf("ReadAt(30,30) = %x, want %x", got, blob[30:60])
	}
	if n, err := s.Size("frames"); err != nil || n != 300 {
		t.Fatalf("Size = %d, %v; want 300", n, err)
	}
	if _, err := s.ReadAt("frames", 290, 20); err == nil {
		t.Fatal("ReadAt past extent accepted")
	}
	if _, err := s.ReadAt("missing", 0, 1); err == nil {
		t.Fatal("ReadAt on missing blob accepted")
	}
}

func TestStoreCloneSharesImageNotState(t *testing.T) {
	s := NewStore(New(2048))
	blob := []byte("the golden configuration image, frames concatenated in order")
	if err := s.PutBytes("golden", blob); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	got, err := c.ReadAt("golden", 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "golden" {
		t.Fatalf("clone ReadAt = %q", got)
	}
	// Upsets on the clone's device must not reach the original.
	c.Device().UpsetBit(32)
	c.Device().UpsetBit(33)
	if _, err := s.ReadAt("golden", 0, len(blob)); err != nil {
		t.Fatalf("original store corrupted via clone: %v", err)
	}
}

// TestStoreWriteAtRestoresDoubleError models the fallback path the mission
// simulator's golden fetch uses: a double-bit upset in the stored extent
// makes ReadAt fail, WriteAt rewrites the extent with fresh ECC from a
// redundant copy, and the next ReadAt succeeds.
func TestStoreWriteAtRestoresDoubleError(t *testing.T) {
	s := NewStore(New(1024))
	blob := bytes.Repeat([]byte{0xA5, 0x3C}, 64)
	if err := s.PutBytes("golden", blob); err != nil {
		t.Fatal(err)
	}
	// Two upsets in the same word: uncorrectable.
	s.Device().UpsetBit(64 + 3)
	s.Device().UpsetBit(64 + 9)
	if _, err := s.ReadAt("golden", 0, 32); err == nil {
		t.Fatal("double-bit error went undetected by ReadAt")
	}
	if err := s.WriteAt("golden", 0, blob[:32]); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAt("golden", 0, 32)
	if err != nil {
		t.Fatalf("ReadAt after restore: %v", err)
	}
	if !bytes.Equal(got, blob[:32]) {
		t.Fatal("restored extent does not match the redundant copy")
	}
	if err := s.WriteAt("golden", 100, blob[:64]); err == nil {
		t.Fatal("WriteAt past the extent accepted")
	}
	if err := s.WriteAt("missing", 0, blob[:1]); err == nil {
		t.Fatal("WriteAt on unknown blob accepted")
	}
}
