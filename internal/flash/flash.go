// Package flash models the payload's nonvolatile configuration storage
// (§II): the 16 MB flash module holding "more than twenty configuration bit
// streams for the Xilinx FPGAs (without compression)", protected by error
// control coding against SEUs that occur while the memory is being
// accessed, plus a directory layer the microprocessor uses to fetch golden
// frames during scrubbing.
package flash

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/device"
)

// FlightFlashBytes is the flight module's capacity.
const FlightFlashBytes = 16 << 20

// Stats counts ECC activity.
type Stats struct {
	Reads            int64
	CorrectedSingles int64
	DetectedDoubles  int64
}

// Device is an ECC-protected word-addressable memory: every 64-bit word
// carries a SECDED (single-error-correct, double-error-detect) Hamming
// code, the "error control coding ... to mitigate SEUs that might occur
// while the memory is being accessed".
type Device struct {
	words []uint64
	ecc   []uint8
	stats Stats
}

// New returns a zeroed device of the given byte capacity.
func New(capacityBytes int) *Device {
	n := (capacityBytes + 7) / 8
	// The code of a zero word is zero, so the zeroed ecc slice is already
	// the encoding of the zeroed words.
	return &Device{words: make([]uint64, n), ecc: make([]uint8, n)}
}

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int { return len(d.words) * 8 }

// Clone returns an independent copy of the device: same stored words and
// check bits (including any uncorrected upsets), fresh stats. The mission
// simulator builds one golden flash image and clones it per board, so a
// thousand-board fleet pays the ECC encoding cost once.
func (d *Device) Clone() *Device {
	c := &Device{words: make([]uint64, len(d.words)), ecc: make([]uint8, len(d.ecc))}
	copy(c.words, d.words)
	copy(c.ecc, d.ecc)
	return c
}

// Stats returns ECC activity counters.
func (d *Device) Stats() Stats { return d.stats }

// Extended Hamming(72,64): data bits occupy codeword positions 1..72,
// skipping the power-of-two positions reserved for the seven parity bits;
// an eighth overall-parity bit upgrades single-error correction to
// double-error detection.
var (
	dataPos [64]int // codeword position of data bit i
	posData [73]int // codeword position -> data bit index, or -1
	// parityMask[p] holds the data bits whose codeword position has bit p
	// set: the bits parity bit p covers.
	parityMask [7]uint64
)

func init() {
	for i := range posData {
		posData[i] = -1
	}
	i := 0
	for pos := 1; pos <= 72 && i < 64; pos++ {
		if pos&(pos-1) == 0 { // power of two: parity position
			continue
		}
		dataPos[i] = pos
		posData[pos] = i
		for p := range parityMask {
			if pos&(1<<p) != 0 {
				parityMask[p] |= 1 << uint(i)
			}
		}
		i++
	}
}

// secded computes the 8-bit SECDED code for a 64-bit word.
func secded(w uint64) uint8 {
	var code uint8
	for p, m := range parityMask {
		code |= uint8(bits.OnesCount64(w&m)&1) << uint(p)
	}
	overall := uint8(bits.OnesCount64(w)&1) ^ uint8(bits.OnesCount8(code&0x7F)&1)
	return code | overall<<7
}

// writeWord stores a word with fresh ECC.
func (d *Device) writeWord(i int, w uint64) {
	d.words[i] = w
	d.ecc[i] = secded(w)
}

// readWord fetches a word, correcting a single bit error and detecting
// (but not correcting) double errors. It leaves Stats.Reads, a byte count,
// to its caller.
func (d *Device) readWord(i int) (uint64, error) {
	w := d.words[i]
	stored := d.ecc[i]
	fresh := secded(w)
	if fresh == stored {
		return w, nil
	}
	synd := int((fresh ^ stored) & 0x7F)
	// Overall parity of the received codeword (data + stored check bits):
	// even when clean, odd for any single physical bit flip.
	overallBad := (bits.OnesCount64(w)+bits.OnesCount8(stored))&1 != 0
	switch {
	case synd != 0 && overallBad:
		// Single-bit error: the syndrome names the codeword position.
		if synd <= 72 && posData[synd] >= 0 {
			// Data bit.
			w ^= 1 << uint(posData[synd])
			d.stats.CorrectedSingles++
			d.writeWord(i, w) // scrub the corrected word back
			return w, nil
		}
		// A stored parity bit flipped; the data is fine.
		d.stats.CorrectedSingles++
		d.ecc[i] = secded(w)
		return w, nil
	case synd == 0 && overallBad:
		// The overall parity bit itself flipped: data is fine.
		d.stats.CorrectedSingles++
		d.ecc[i] = fresh
		return w, nil
	default:
		// Non-zero syndrome without an overall-parity flip: double error.
		d.stats.DetectedDoubles++
		return 0, fmt.Errorf("flash: double-bit error detected at word %d", i)
	}
}

// Write stores bytes at a byte offset (offset and data need not be
// word-aligned).
func (d *Device) Write(offset int64, data []byte) error {
	if offset < 0 || offset+int64(len(data)) > int64(d.Capacity()) {
		return fmt.Errorf("flash: write [%d,%d) out of capacity %d", offset, offset+int64(len(data)), d.Capacity())
	}
	k := 0
	// Head: bytes up to the first word boundary.
	for k < len(data) && (offset+int64(k))&7 != 0 {
		d.writeByte(offset+int64(k), data[k])
		k++
	}
	// Body: whole words, one ECC encode each instead of eight.
	for ; k+8 <= len(data); k += 8 {
		d.writeWord(int((offset+int64(k))>>3), binary.LittleEndian.Uint64(data[k:]))
	}
	// Tail.
	for ; k < len(data); k++ {
		d.writeByte(offset+int64(k), data[k])
	}
	return nil
}

func (d *Device) writeByte(pos int64, b byte) {
	i := int(pos >> 3)
	sh := uint(pos&7) * 8
	w := d.words[i] // raw read: we are overwriting, ECC refreshed below
	w = (w &^ (0xFF << sh)) | uint64(b)<<sh
	d.writeWord(i, w)
}

// Read fetches n bytes from a byte offset through the ECC path, decoding
// each word in range once. Stats.Reads counts bytes; a read that hits a
// double error counts the bytes before the bad word plus one.
func (d *Device) Read(offset int64, n int) ([]byte, error) {
	if err := d.inRange(offset, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := d.read(offset, n, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Verify runs n bytes at a byte offset through the ECC path exactly as Read
// does (corrections scrubbed back, Stats moved the same) without copying
// them out or allocating.
func (d *Device) Verify(offset int64, n int) error {
	if err := d.inRange(offset, n); err != nil {
		return err
	}
	return d.read(offset, n, nil)
}

func (d *Device) inRange(offset int64, n int) error {
	if offset < 0 || offset+int64(n) > int64(d.Capacity()) {
		return fmt.Errorf("flash: read [%d,%d) out of capacity %d", offset, offset+int64(n), d.Capacity())
	}
	return nil
}

// read decodes every word overlapping [offset, offset+n) once and copies
// the bytes into out unless out is nil.
func (d *Device) read(offset int64, n int, out []byte) error {
	for k := 0; k < n; {
		pos := offset + int64(k)
		w, err := d.readWord(int(pos >> 3))
		if err != nil {
			d.stats.Reads += int64(k) + 1
			return err
		}
		if out == nil {
			k += 8 - int(pos&7)
			continue
		}
		for sh := uint(pos&7) * 8; sh < 64 && k < n; sh += 8 {
			out[k] = byte(w >> sh)
			k++
		}
	}
	d.stats.Reads += int64(n)
	return nil
}

// UpsetBit flips one stored bit (a radiation strike on the flash array).
// ECC corrects it on the next read.
func (d *Device) UpsetBit(bitPos int64) {
	d.words[bitPos>>6] ^= 1 << (uint(bitPos) & 63)
}

// Store is the bitstream directory the microprocessor uses: named
// configuration bitstreams packed into the flash.
type Store struct {
	dev  *Device
	next int64
	dir  map[string]extent
}

type extent struct{ off, n int64 }

// NewStore wraps a device with a directory.
func NewStore(dev *Device) *Store {
	return &Store{dev: dev, dir: make(map[string]extent)}
}

// Put stores a serialized bitstream under a name.
func (s *Store) Put(name string, bs *bitstream.Bitstream) error {
	return s.PutBytes(name, bs.Marshal())
}

// PutBytes stores a raw blob under a name — e.g. the golden configuration
// frames concatenated in frame order, so ReadAt can fetch a single repair
// frame through the ECC path without parsing the full bitstream.
func (s *Store) PutBytes(name string, raw []byte) error {
	if _, dup := s.dir[name]; dup {
		return fmt.Errorf("flash: %q already stored", name)
	}
	if err := s.dev.Write(s.next, raw); err != nil {
		return fmt.Errorf("flash: storing %q: %w", name, err)
	}
	s.dir[name] = extent{off: s.next, n: int64(len(raw))}
	s.next += int64(len(raw))
	return nil
}

// ReadAt fetches n bytes at byte offset off within the named blob, through
// the ECC read path. This is the microprocessor's repair-frame fetch: a
// single-bit flash upset inside the extent is corrected (and scrubbed back)
// transparently, a double-bit upset surfaces as an error the caller must
// handle by falling back to a redundant stored copy.
func (s *Store) ReadAt(name string, off int64, n int) ([]byte, error) {
	at, err := s.at(name, off, n)
	if err != nil {
		return nil, err
	}
	return s.dev.Read(at, n)
}

// VerifyAt is ReadAt for a caller that needs only the ECC outcome (the
// corrections, the stats, a double-error verdict), not the bytes.
func (s *Store) VerifyAt(name string, off int64, n int) error {
	at, err := s.at(name, off, n)
	if err != nil {
		return err
	}
	return s.dev.Verify(at, n)
}

// at returns the device offset of n bytes at offset off within the named
// blob.
func (s *Store) at(name string, off int64, n int) (int64, error) {
	e, ok := s.dir[name]
	if !ok {
		return 0, fmt.Errorf("flash: no blob %q", name)
	}
	if off < 0 || off+int64(n) > e.n {
		return 0, fmt.Errorf("flash: read [%d,%d) outside %q extent of %d bytes", off, off+int64(n), name, e.n)
	}
	return e.off + off, nil
}

// WriteAt overwrites n bytes at byte offset off within the named blob with
// fresh ECC — the repair path after a detected double-bit error, restoring
// the extent from a redundant stored copy.
func (s *Store) WriteAt(name string, off int64, data []byte) error {
	e, ok := s.dir[name]
	if !ok {
		return fmt.Errorf("flash: no blob %q", name)
	}
	if off < 0 || off+int64(len(data)) > e.n {
		return fmt.Errorf("flash: write [%d,%d) outside %q extent of %d bytes", off, off+int64(len(data)), name, e.n)
	}
	return s.dev.Write(e.off+off, data)
}

// Size returns the stored length of the named blob.
func (s *Store) Size(name string) (int64, error) {
	e, ok := s.dir[name]
	if !ok {
		return 0, fmt.Errorf("flash: no blob %q", name)
	}
	return e.n, nil
}

// Clone returns an independent store: the device image is copied (stored
// words, check bits, latent upsets) and the directory duplicated. Stats
// start fresh on the clone.
func (s *Store) Clone() *Store {
	c := &Store{dev: s.dev.Clone(), next: s.next, dir: make(map[string]extent, len(s.dir))}
	for k, v := range s.dir {
		c.dir[k] = v
	}
	return c
}

// Device returns the underlying ECC device (strike injection, stats).
func (s *Store) Device() *Device { return s.dev }

// Get fetches and parses a stored bitstream through the ECC read path.
func (s *Store) Get(name string, g device.Geometry) (*bitstream.Bitstream, error) {
	e, ok := s.dir[name]
	if !ok {
		return nil, fmt.Errorf("flash: no bitstream %q", name)
	}
	raw, err := s.dev.Read(e.off, int(e.n))
	if err != nil {
		return nil, err
	}
	return bitstream.Unmarshal(g, raw)
}

// Names lists stored bitstreams.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.dir))
	for n := range s.dir {
		out = append(out, n)
	}
	return out
}

// Used returns consumed bytes.
func (s *Store) Used() int64 { return s.next }

// Free returns remaining capacity in bytes.
func (s *Store) Free() int64 { return int64(s.dev.Capacity()) - s.next }
