package board

import (
	"math/rand"
	"testing"
)

// TestStimMatchesMathRand pins the reconstruction against the real source
// across the lazy window, the materialization at draw 273, the feed wrap at
// draw 334+273, and full ring wraps, for a spread of seed classes (positive,
// zero, negative, >=2^31, exactly the Lehmer modulus).
func TestStimMatchesMathRand(t *testing.T) {
	seeds := []int64{1, 2, 0, -1, -123456789, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<62 + 7, -1 << 61}
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		s := newStim(seed)
		for j := 0; j < 2000; j++ {
			got, want := s.Int63(), ref.Int63()
			if got != want {
				t.Fatalf("seed %d draw %d: stim %d, math/rand %d", seed, j, got, want)
			}
		}
	}
}

// TestStimReseed checks Seed restarts the stream exactly, including reseeding
// after the state was materialized and fed back.
func TestStimReseed(t *testing.T) {
	s := newStim(11)
	ref := rand.New(rand.NewSource(11))
	for _, drawsBefore := range []int{0, 5, 273, 400, 700} {
		for j := 0; j < drawsBefore; j++ {
			s.Int63()
		}
		s.Seed(99)
		ref.Seed(99)
		for j := 0; j < 300; j++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("after %d draws then reseed, draw %d: stim %d, math/rand %d", drawsBefore, j, got, want)
			}
		}
		s.Seed(11)
		ref.Seed(11)
	}
}

// TestStimSkip checks Skip(n) lands on the same stream position as n draws,
// both inside the lazy window and across materialization.
func TestStimSkip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 272, 273, 274, 500, 900} {
		s := newStim(5)
		s.Skip(n)
		ref := rand.New(rand.NewSource(5))
		for j := 0; j < n; j++ {
			ref.Int63()
		}
		for j := 0; j < 100; j++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("skip %d draw %d: stim %d, math/rand %d", n, j, got, want)
			}
		}
	}
}

func BenchmarkStimSeedAndDraw24(b *testing.B) {
	s := newStim(1)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		for j := 0; j < 24; j++ {
			s.Int63()
		}
	}
}

func BenchmarkMathRandSeedAndDraw24(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		for j := 0; j < 24; j++ {
			r.Int63()
		}
	}
}
