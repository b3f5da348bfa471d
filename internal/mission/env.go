package mission

import (
	"fmt"
	"math"
	"time"

	"repro/internal/radiation"
)

// EnvConfig is one board's radiation environment: base upset rates per
// regime (quiet orbit vs solar flare), orbit-phase flux modulation (the
// South Atlantic Anomaly pass concentrates most LEO upsets into a slice of
// each orbit), and the multi-bit-upset cluster model.
type EnvConfig struct {
	// QuietPerHour and FlarePerHour are per-device configuration-strike
	// environments, in upsets/hour (the paper's system rates divided by
	// its nine devices).
	QuietPerHour float64
	FlarePerHour float64

	// FluxScale multiplies both base rates (sweep knob; 0 means 1).
	FluxScale float64

	// OrbitPeriod is the orbital period for flux modulation; 0 disables
	// modulation.
	OrbitPeriod time.Duration
	// OrbitAmplitude in [0,1) modulates instantaneous flux as
	// 1 + A*cos(2*pi*(t/P + phase)); each board gets its own deterministic
	// phase, and the modulation is mean-preserving so regime rates stay
	// interpretable.
	OrbitAmplitude float64

	// FlareMeanEvery is the mean quiet interval between flare onsets;
	// 0 disables generated flares. FlareMeanDuration is the mean flare
	// length. Flares are fleet-global (space weather is shared), drawn
	// once per mission from the seed.
	FlareMeanEvery    time.Duration
	FlareMeanDuration time.Duration

	// MBU is the multi-bit upset cluster model.
	MBU radiation.MBU

	// CrossSection weights strike targets; FlashWeight (per flash bit)
	// extends the paper's partition with strikes on the golden store.
	CrossSection radiation.CrossSection
	FlashWeight  float64

	// RateBound, when non-zero, overrides the thinning bound (per device,
	// upsets/hour). Runs that share a seed AND a bound draw nested strike
	// sets as flux varies — the coupling the monotonicity tests use. The
	// bound must be >= the peak instantaneous rate.
	RateBound float64
}

// DefaultEnv returns the paper's LEO environment: 1.2 upsets/hour quiet and
// 9.6/hour in flares across nine devices, a 92-minute orbit with strong
// SAA-style modulation, and the default MBU and cross-section models.
func DefaultEnv() EnvConfig {
	return EnvConfig{
		QuietPerHour:      radiation.LEOQuietSystemRate / radiation.SystemDevices,
		FlarePerHour:      radiation.LEOFlareSystemRate / radiation.SystemDevices,
		OrbitPeriod:       92 * time.Minute,
		OrbitAmplitude:    0.6,
		FlareMeanEvery:    0, // flares off by default; scenarios add them
		FlareMeanDuration: 12 * time.Hour,
		MBU:               radiation.DefaultMBU(),
		CrossSection:      radiation.DefaultCrossSection(),
		FlashWeight:       0.02,
	}
}

func (e EnvConfig) fluxScale() float64 {
	if e.FluxScale <= 0 {
		return 1
	}
	return e.FluxScale
}

// peakPerHour is the highest instantaneous per-device rate the environment
// can produce.
func (e EnvConfig) peakPerHour() float64 {
	base := math.Max(e.QuietPerHour, e.FlarePerHour) * e.fluxScale()
	return base * (1 + e.OrbitAmplitude)
}

// bound returns the thinning bound in upsets/hour per device.
func (e EnvConfig) bound() (float64, error) {
	peak := e.peakPerHour()
	b := e.RateBound
	if b == 0 {
		b = peak
	}
	if b < peak {
		return 0, fmt.Errorf("mission: rate bound %.3f/h below peak instantaneous rate %.3f/h", b, peak)
	}
	if b <= 0 {
		return 0, fmt.Errorf("mission: environment has zero upset rate")
	}
	return b, nil
}

func (e EnvConfig) validate() error {
	if e.OrbitAmplitude < 0 || e.OrbitAmplitude >= 1 {
		return fmt.Errorf("mission: orbit amplitude %.2f outside [0,1)", e.OrbitAmplitude)
	}
	if e.QuietPerHour < 0 || e.FlarePerHour < 0 {
		return fmt.Errorf("mission: negative upset rate")
	}
	_, err := e.bound()
	return err
}

// Window is one solar-flare interval.
type Window struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// FlareTimeline draws the mission's fleet-global flare windows from the
// seed: exponential quiet gaps between onsets, exponential durations.
func FlareTimeline(seed int64, duration time.Duration, env EnvConfig) []Window {
	if env.FlareMeanEvery <= 0 || env.FlareMeanDuration <= 0 {
		return nil
	}
	rng := newStream(uint64(seed), tagFlares)
	var out []Window
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.exp() * float64(env.FlareMeanEvery))
		start := t + gap
		if start >= duration {
			return out
		}
		length := time.Duration(rng.exp() * float64(env.FlareMeanDuration))
		end := start + length
		if end > duration {
			end = duration
		}
		out = append(out, Window{Start: start, End: end})
		t = end
	}
}

// inFlare reports whether t falls in a flare window. Windows are sorted and
// non-overlapping by construction; idx is a monotone cursor the caller
// carries through its time-ordered scan.
func inFlare(windows []Window, t time.Duration, idx *int) bool {
	for *idx < len(windows) && t >= windows[*idx].End {
		*idx++
	}
	return *idx < len(windows) && t >= windows[*idx].Start
}

// Strike is one upset event on a board, fully determined by the
// environment (never by the scrub strategy under test, so every strategy
// replays an identical history).
type Strike struct {
	// At is the strike time.
	At time.Duration
	// Device indexes the FPGA within the board; flash strikes hit the
	// board-level golden store and leave Device at 0.
	Device uint8
	// Kind classifies the target.
	Kind radiation.StrikeKind
	// Flare marks strikes landing inside a flare window.
	Flare bool
	// Frame and Frame2 are the configuration frames hit (config strikes);
	// Frame2 is -1 unless the MBU cluster straddles two frames.
	Frame  int32
	Frame2 int32
	// Bits is the MBU cluster size.
	Bits uint8
	// Critical marks clusters that hit at least one bit the design's
	// sensitivity analysis classifies as potentially functional.
	Critical bool
	// FlashBit is the flash bit position for flash strikes.
	FlashBit int64
	// Cand is the environment candidate index that produced the strike;
	// strategy-private draws are keyed by it so shared strikes resolve
	// identically across flux-coupled runs.
	Cand uint64
}

// StrikeFlash extends radiation's strike kinds with upsets in the board's
// flash golden store. It lives here rather than in radiation because the
// flash array is board-level, not device-level.
const StrikeFlash = radiation.StrikeControl + 1

// kindName maps strike kinds (including StrikeFlash) to report keys.
func kindName(k radiation.StrikeKind) string {
	if k == StrikeFlash {
		return "flash"
	}
	return k.String()
}

// genStrikes draws board b's complete strike history. Candidate arrivals
// are a homogeneous Poisson process at the thinning bound; each candidate
// is accepted with probability rate(t)/bound, so the accepted set follows
// the inhomogeneous regime/orbit rate exactly. Candidate times and accept
// draws come from one stream, per-strike details from a stream keyed by
// candidate index — runs sharing (seed, board, bound) therefore agree on
// every shared strike even when flux differs.
func genStrikes(m *Model, cfg *Config, flares []Window, b int) ([]Strike, error) {
	env := cfg.Env
	boundPerHour, err := env.bound()
	if err != nil {
		return nil, err
	}
	devices := cfg.DevicesPerBoard
	// Aggregate candidate rate across the board's devices (flash weight is
	// folded into the per-strike target draw, scaled against device
	// cross-section, so the board rate uses device count only).
	aggPerHour := boundPerHour * float64(devices)
	meanGap := float64(time.Hour) / aggPerHour

	cand := newStream(uint64(cfg.Seed), uint64(b), tagCandidates)
	phase := newStream(uint64(cfg.Seed), uint64(b), tagPhase).float64()
	quiet := env.QuietPerHour * env.fluxScale()
	flare := env.FlarePerHour * env.fluxScale()

	// Strike-target weights from the radiation cross-section.
	xs := env.CrossSection
	wConfig := xs.ConfigWeight * float64(m.TotalBits)
	wHL := xs.HalfLatchWeight * float64(m.HalfLatchSites)
	wFF := xs.FFWeight * float64(m.FFs)
	wCtl := xs.ControlWeight
	wFlash := env.FlashWeight * float64(m.FlashBits) / float64(devices)
	wTotal := wConfig + wHL + wFF + wCtl + wFlash

	var out []Strike
	var candIdx uint64
	flareIdx := 0
	t := time.Duration(0)
	for {
		t += time.Duration(cand.exp() * meanGap)
		if t >= cfg.Duration {
			return out, nil
		}
		candIdx++
		accept := cand.float64()
		base := quiet
		isFlare := inFlare(flares, t, &flareIdx)
		if isFlare {
			base = flare
		}
		rate := base
		if env.OrbitPeriod > 0 {
			// cos ≤ 1 and amplitude ≥ 0 (validate), so a candidate the
			// orbit's peak rejects is rejected at every phase: skip the
			// phase arithmetic for it.
			if accept*boundPerHour >= base*(1+env.OrbitAmplitude) {
				continue
			}
			frac := math.Mod(float64(t)/float64(env.OrbitPeriod)+phase, 1)
			rate *= 1 + env.OrbitAmplitude*math.Cos(2*math.Pi*frac)
		}
		if accept*boundPerHour >= rate {
			continue
		}

		det := newStream(uint64(cfg.Seed), uint64(b), tagDetails, candIdx)
		st := Strike{At: t, Flare: isFlare, Cand: candIdx, Frame: -1, Frame2: -1}
		st.Device = uint8(det.intn(devices))
		x := det.float64() * wTotal
		switch {
		case x < wConfig:
			st.Kind = radiation.StrikeConfig
			st.Frame = int32(det.intn(m.Frames))
			size := env.MBU.Size(det.float64())
			st.Bits = uint8(size)
			spans := env.MBU.SpansFrames(size, det.float64())
			if spans && int(st.Frame)+1 < m.Frames {
				st.Frame2 = st.Frame + 1
			}
			// A cluster is critical when any member bit lands on a
			// potentially-sensitive bit of its frame (per-frame fractions
			// from the design's static sensitivity mask).
			for i := 0; i < size; i++ {
				f := st.Frame
				if st.Frame2 >= 0 && i >= size/2 {
					f = st.Frame2
				}
				if det.float64() < m.SensFrac[f] {
					st.Critical = true
				}
			}
		case x < wConfig+wHL:
			st.Kind = radiation.StrikeHalfLatch
		case x < wConfig+wHL+wFF:
			st.Kind = radiation.StrikeUserFF
		case x < wConfig+wHL+wFF+wCtl:
			st.Kind = radiation.StrikeControl
		default:
			st.Kind = StrikeFlash
			st.FlashBit = det.int63n(int64(m.FlashBits))
		}
		out = append(out, st)
	}
}
