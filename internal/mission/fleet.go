package mission

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/radiation"
	"repro/internal/scrub"
)

// Config describes one fleet mission.
type Config struct {
	// Seed is the mission seed; it fully determines the report.
	Seed int64
	// Boards is the fleet size; DevicesPerBoard the FPGAs on each board
	// (the paper's payload carries nine).
	Boards          int
	DevicesPerBoard int
	// Duration is the simulated mission length.
	Duration time.Duration
	// Strategies are the scrub policies to compare; every strategy replays
	// the identical strike history.
	Strategies []scrub.Strategy
	// Workers shards boards across goroutines. The report is byte-identical
	// at any worker count; 0 means GOMAXPROCS.
	Workers int

	// Design and Geom pick the flown design; the sensitivity model comes
	// from its placed golden decode.
	Design string
	Geom   device.Geometry

	// Env is the radiation environment; Timing the scrub port cost model.
	Env    EnvConfig
	Timing scrub.Timing

	// RedundancyCoverage is the fraction of potentially-sensitive bits the
	// configuration-redundancy strategy duplicates (most-sensitive frames
	// first).
	RedundancyCoverage float64
	// BlindRefreshEvery paces blind scrubbing's periodic full
	// reconfiguration — its only recovery for control-logic and half-latch
	// damage.
	BlindRefreshEvery time.Duration

	// PassEvery and PassContact schedule groundlink telemetry downlink:
	// one contact window of PassContact every PassEvery.
	PassEvery   time.Duration
	PassContact time.Duration
	// MaxEventsPerBoard caps each board's telemetry event log.
	MaxEventsPerBoard int
}

// withDefaults fills zero fields with mission defaults.
func (c Config) withDefaults() Config {
	if c.Boards == 0 {
		c.Boards = 64
	}
	if c.DevicesPerBoard == 0 {
		c.DevicesPerBoard = 9 // the paper's nine-FPGA payload
	}
	if c.Duration == 0 {
		c.Duration = 7 * 24 * time.Hour
	}
	if len(c.Strategies) == 0 {
		c.Strategies = append([]scrub.Strategy(nil), scrub.Strategies...)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Design == "" {
		c.Design = "LFSR 18"
	}
	if c.Geom == (device.Geometry{}) {
		c.Geom = device.Tiny()
	}
	if c.Env.QuietPerHour == 0 && c.Env.FlarePerHour == 0 {
		c.Env = DefaultEnv()
	}
	if c.Env.MBU.SizeCDF == nil {
		c.Env.MBU = radiation.DefaultMBU()
	}
	if c.Env.CrossSection == (radiation.CrossSection{}) {
		c.Env.CrossSection = radiation.DefaultCrossSection()
	}
	if c.Timing == (scrub.Timing{}) {
		c.Timing = scrub.DefaultTiming()
	}
	if c.RedundancyCoverage == 0 {
		c.RedundancyCoverage = 0.8
	}
	if c.BlindRefreshEvery == 0 {
		c.BlindRefreshEvery = 5 * time.Minute
	}
	if c.PassEvery == 0 {
		c.PassEvery = 92 * time.Minute // one ground contact per orbit
	}
	if c.PassContact == 0 {
		c.PassContact = 8 * time.Minute
	}
	if c.MaxEventsPerBoard == 0 {
		c.MaxEventsPerBoard = 4096
	}
	return c
}

func (c Config) validate() error {
	if c.Boards < 1 {
		return fmt.Errorf("mission: need at least one board")
	}
	if c.DevicesPerBoard < 1 || c.DevicesPerBoard > 256 {
		return fmt.Errorf("mission: devices per board %d outside [1,256]", c.DevicesPerBoard)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("mission: non-positive duration")
	}
	for _, s := range c.Strategies {
		if s == scrub.StrategyNeighbor && c.DevicesPerBoard < 2 {
			return fmt.Errorf("mission: neighbor strategy needs at least 2 devices per board")
		}
	}
	return c.Env.validate()
}

// boardOutcome is one board's results: the shared environment tally plus a
// per-strategy result, produced by whichever worker drew the board and
// merged strictly in board-index order.
type boardOutcome struct {
	strikes     []Strike
	byKind      map[string]int64
	flareHits   int64
	perStrategy []stratResult
}

// Run simulates the fleet and returns the mission report. The fleet is
// sharded across Workers goroutines by an atomic board counter; every board
// is self-contained (its streams are keyed by (seed, board)), and outcomes
// are merged in board-index order, so the report bytes are independent of
// worker count and scheduling.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	model, err := BuildModel(cfg.Design, cfg.Geom, cfg.RedundancyCoverage)
	if err != nil {
		return nil, err
	}
	flares := FlareTimeline(cfg.Seed, cfg.Duration, cfg.Env)

	params := make([]strategyParams, len(cfg.Strategies))
	for i, s := range cfg.Strategies {
		params[i] = cfg.params(s, model)
	}

	outcomes := make([]boardOutcome, cfg.Boards)
	var nextBoard atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(nextBoard.Add(1)) - 1
				if b >= cfg.Boards {
					return
				}
				strikes, err := genStrikes(model, &cfg, flares, b)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				o := &outcomes[b]
				o.strikes = strikes
				o.byKind = make(map[string]int64)
				for i := range strikes {
					o.byKind[kindName(strikes[i].Kind)]++
					if strikes[i].Flare {
						o.flareHits++
					}
				}
				o.perStrategy = make([]stratResult, len(params))
				for i, p := range params {
					o.perStrategy[i] = simStrategy(model, &cfg, p, strikes)
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}

	return buildReport(&cfg, model, flares, outcomes), nil
}
