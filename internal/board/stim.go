package board

// Fast per-injection stimulus source.
//
// Every injection re-seeds its stimulus stream (board.ResetCampaignState,
// VectorBoard.StartBatch) so campaigns are order- and worker-independent.
// math/rand pays ~1900 multiplicative-LCG steps per Seed to fill the 607-word
// lagged-Fibonacci state — profiled at 20-30% of vector-kernel wall time when
// the observe window only ever draws a few dozen values per lane.
//
// stim reproduces rand.New(rand.NewSource(seed)).Int63() bit-for-bit with an
// O(1) Seed. The trick: math/rand's seeding writes
//
//	vec0[i] = (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i]) ^ rngCooked[i]
//
// where x[n] is the n-th iterate of the Lehmer LCG x -> 48271*x mod 2^31-1,
// so x[n] = 48271^n * x0 mod 2^31-1 and any vec0[i] is computable on demand
// from a precomputed table of 48271^n. After seeding, draw j (0-based) reads
// vec[333-j] and vec[606-j] and writes vec[333-j]; for j < 273 both reads hit
// untouched initial state, so the first 273 draws need no materialized vector
// at all — just six modular multiplies each. Draw 273 is the first to read a
// fed-back word; at that point we materialize the full vector, replay the
// writes the lazy draws would have made (they only depend on initial state),
// and continue with the classic additive recurrence.
//
// Exactness is load-bearing (reports must stay byte-identical to the scalar
// era). Go guarantees the rand.NewSource stream (stim_cooked.go), and
// stim_test.go pins the reconstruction against it across the
// materialization and both ring-wrap boundaries.

const (
	stimLen  = 607           // rngLen: words of lagged-Fibonacci state
	stimTap  = 273           // rngTap: short lag
	stimMask = 1<<63 - 1     // rngMask: Int63 truncation
	lcgM     = (1 << 31) - 1 // Lehmer modulus 2^31-1 (prime)
	lcgA     = 48271         // Lehmer multiplier
	stimLazy = stimTap       // draws servable straight from initial state
	// lcgSteps is the deepest LCG iterate seeding consumes: 20 warmup steps
	// plus 3 per vector word, ending at x[20+3*607] = x[1841].
	lcgSteps = 20 + 3*stimLen
)

// lcgPow[n] = 48271^n mod 2^31-1.
var lcgPow [lcgSteps + 1]uint64

func init() {
	lcgPow[0] = 1
	for n := 1; n <= lcgSteps; n++ {
		lcgPow[n] = mulmod31(lcgPow[n-1], lcgA)
	}
}

// mulmod31 returns a*b mod 2^31-1. Operands are < 2^31 so the product fits
// uint64; reduction folds the high bits twice (Mersenne prime).
func mulmod31(a, b uint64) uint64 {
	p := a * b
	p = (p >> 31) + (p & lcgM)
	p = (p >> 31) + (p & lcgM)
	for p >= lcgM {
		p -= lcgM
	}
	return p
}

// stimNorm replicates rngSource.Seed's seed normalization into the Lehmer
// domain [1, 2^31-2].
func stimNorm(seed int64) uint64 {
	seed %= lcgM
	if seed < 0 {
		seed += lcgM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// stim is a drop-in replacement for rand.New(rand.NewSource(seed)) covering
// the two methods campaigns use: Seed and Int63 (plus Skip for fast-forward).
type stim struct {
	x0   uint64 // normalized Lehmer seed
	k    int    // draws consumed since Seed
	tap  int    // ring indices, valid once materialized
	feed int
	mat  bool // vec holds live state (k >= stimLazy reached)
	vec  [stimLen]uint64
}

// newStim returns a source seeded like rand.New(rand.NewSource(seed)).
func newStim(seed int64) *stim {
	s := &stim{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream, matching rand.Rand.Seed. O(1): no state is
// touched until a draw needs it.
func (s *stim) Seed(seed int64) {
	s.x0 = stimNorm(seed)
	s.k = 0
	s.mat = false
}

// vec0 computes the i-th word of the freshly seeded vector on demand.
func (s *stim) vec0(i int) uint64 {
	n := 21 + 3*i
	u := mulmod31(lcgPow[n], s.x0) << 40
	u ^= mulmod31(lcgPow[n+1], s.x0) << 20
	u ^= mulmod31(lcgPow[n+2], s.x0)
	return u ^ rngCooked[i]
}

// materialize fills vec with the full seeded state, replays the writes the
// first k lazy draws performed (each wrote vec[333-j], reading only initial
// words), and sets the ring indices where math/rand would have them.
func (s *stim) materialize() {
	for i := 0; i < stimLen; i++ {
		s.vec[i] = s.vec0(i)
	}
	for j := 0; j < s.k; j++ {
		s.vec[stimLen-stimTap-1-j] += s.vec[stimLen-1-j]
	}
	s.tap = ((0-s.k)%stimLen + stimLen) % stimLen
	s.feed = ((stimLen-stimTap-s.k)%stimLen + stimLen) % stimLen
	s.mat = true
}

// Int63 returns the next value of the stream, identical to rand.Rand.Int63.
func (s *stim) Int63() int64 {
	if !s.mat {
		if j := s.k; j < stimLazy {
			s.k++
			return int64((s.vec0(stimLen-stimTap-1-j) + s.vec0(stimLen-1-j)) & stimMask)
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += stimLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += stimLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	s.k++
	return int64(x & stimMask)
}

// Skip discards n draws. In the lazy window this is a pure counter bump,
// which is what makes fast-forwarding carried lanes cheap.
func (s *stim) Skip(n int) {
	if !s.mat && s.k+n <= stimLazy {
		s.k += n
		return
	}
	for i := 0; i < n; i++ {
		s.Int63()
	}
}
