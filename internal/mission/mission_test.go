package mission

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/scrub"
)

func TestNextTouch(t *testing.T) {
	p := strategyParams{perFrame: 10 * time.Microsecond, scanCycle: time.Millisecond}
	cases := []struct {
		frame int32
		from  time.Duration
		want  time.Duration
	}{
		{0, 0, 0},
		{3, 0, 30 * time.Microsecond},
		{3, 30 * time.Microsecond, 30 * time.Microsecond},
		{3, 31 * time.Microsecond, time.Millisecond + 30*time.Microsecond},
		{0, 1, time.Millisecond},
		{5, 3 * time.Millisecond, 3*time.Millisecond + 50*time.Microsecond},
	}
	for _, c := range cases {
		if got := p.nextTouch(c.frame, c.from); got != c.want {
			t.Errorf("nextTouch(%d, %v) = %v, want %v", c.frame, c.from, got, c.want)
		}
	}
}

func TestLatencyBucket(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2 * time.Microsecond, 2},
		{3 * time.Microsecond, 2},
		{time.Second, 20},
		{300 * time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := latencyBucket(c.d); got != c.want {
			t.Errorf("latencyBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestFlareTimelineDeterministicAndSorted(t *testing.T) {
	env := DefaultEnv()
	env.FlareMeanEvery = 24 * time.Hour
	env.FlareMeanDuration = 6 * time.Hour
	dur := 30 * 24 * time.Hour
	a := FlareTimeline(42, dur, env)
	b := FlareTimeline(42, dur, env)
	if len(a) == 0 {
		t.Fatal("no flare windows generated")
	}
	if len(a) != len(b) {
		t.Fatalf("timeline not deterministic: %d vs %d windows", len(a), len(b))
	}
	prev := time.Duration(-1)
	for i, w := range a {
		if w != b[i] {
			t.Fatalf("window %d differs across identical calls", i)
		}
		if w.Start <= prev || w.End <= w.Start || w.End > dur {
			t.Fatalf("window %d malformed or out of order: %+v", i, w)
		}
		prev = w.End
	}
	if tl := FlareTimeline(42, dur, DefaultEnv()); tl != nil {
		t.Fatalf("flares disabled by default, got %d windows", len(tl))
	}
}

func TestInFlareCursor(t *testing.T) {
	windows := []Window{{Start: 10, End: 20}, {Start: 40, End: 50}}
	idx := 0
	cases := []struct {
		t    time.Duration
		want bool
	}{{5, false}, {10, true}, {19, true}, {20, false}, {39, false}, {45, true}, {60, false}}
	for _, c := range cases {
		if got := inFlare(windows, c.t, &idx); got != c.want {
			t.Errorf("inFlare(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestGenStrikesDeterministicPerBoard(t *testing.T) {
	m, err := BuildModel("LFSR 18", device.Tiny(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 9, Boards: 2, Duration: 14 * 24 * time.Hour}.withDefaults()
	a, err := genStrikes(m, &cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genStrikes(m, &cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no strikes over two weeks")
	}
	if len(a) != len(b) {
		t.Fatalf("strike history not deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("strike %d differs across identical calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	other, err := genStrikes(m, &cfg, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) == len(a) {
		same := true
		for i := range a {
			if a[i] != other[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("boards 0 and 1 drew identical strike histories")
		}
	}
	prev := time.Duration(-1)
	for i := range a {
		st := &a[i]
		if st.At <= prev {
			t.Fatalf("strike %d out of time order", i)
		}
		prev = st.At
		if int(st.Device) >= cfg.DevicesPerBoard {
			t.Fatalf("strike %d device %d out of range", i, st.Device)
		}
		if st.Kind == 0 && (st.Frame < 0 || int(st.Frame) >= m.Frames) {
			t.Fatalf("config strike %d frame %d out of range", i, st.Frame)
		}
	}
}

func TestBuildModelProtectedSet(t *testing.T) {
	full, err := BuildModel("LFSR 18", device.Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	none, err := BuildModel("LFSR 18", device.Tiny(), 0)
	if err != nil {
		t.Fatal(err)
	}
	half, err := BuildModel("LFSR 18", device.Tiny(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if none.ProtectedCount != 0 {
		t.Fatalf("coverage 0 protected %d frames", none.ProtectedCount)
	}
	if full.ProtectedCount == 0 || full.ProtectedCount > full.Frames {
		t.Fatalf("coverage 1 protected %d of %d frames", full.ProtectedCount, full.Frames)
	}
	if half.ProtectedCount == 0 || half.ProtectedCount >= full.ProtectedCount {
		t.Fatalf("coverage 0.5 protected %d frames, full coverage %d", half.ProtectedCount, full.ProtectedCount)
	}
	// Protection follows sensitivity: every protected frame must be at
	// least as sensitive as every unprotected one... not in general (greedy
	// by count with stable ties), but a protected frame can never have zero
	// sensitive bits.
	for f, p := range full.Protected {
		if p && full.SensFrac[f] == 0 {
			t.Fatalf("frame %d protected with zero sensitive bits", f)
		}
	}
	if full.FrameBytes != device.Tiny().FrameBytes() {
		t.Fatalf("frame bytes %d vs geometry %d", full.FrameBytes, device.Tiny().FrameBytes())
	}
	if got, _ := full.FlashProto.Size(goldenBlob); got != int64(len(full.Golden)) {
		t.Fatalf("flash golden blob %d bytes, image %d", got, len(full.Golden))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Boards: -1},
		{DevicesPerBoard: 1, Strategies: []scrub.Strategy{scrub.StrategyNeighbor}},
		{Env: EnvConfig{QuietPerHour: -1, FlarePerHour: 1}},
		{Env: EnvConfig{QuietPerHour: 1, FlarePerHour: 1, OrbitAmplitude: 1.5}},
		{Env: EnvConfig{QuietPerHour: 1, FlarePerHour: 4, RateBound: 2, OrbitPeriod: time.Hour}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
