package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/mission"
	"repro/internal/scrub"
)

// fleet is the mission-paper workload: mission.Run of missionsim's
// -scenario paper configuration, then Report.Marshal. It shares no code
// with the seu sweep path.
//
// A mission's cost follows its strike count, and the fleet-global flare
// timeline a seed draws moves that by ±20%. So one op flies fleets of
// `boards` boards, seeded -seed*1000 + 0, 1, 2, ..., until `strikes`
// strikes have been simulated: seeds change the inputs, not the amount of
// work.
type fleet struct {
	r        *run
	boards   int
	duration time.Duration
	strikes  int64
}

// paperScenario mirrors missionsim -scenario paper: nine LFSR 72 devices per
// board on the small geometry, scrub timing scaled so one board's readback
// scan takes the paper's 180 ms, and a flare-active environment.
func paperScenario(seed int64, boards int, duration time.Duration, workers int) mission.Config {
	geom := device.Small()
	t := scrub.DefaultTiming()
	boardScan := time.Duration(9*geom.TotalFrames()) * t.FrameRead
	env := mission.DefaultEnv()
	env.FlareMeanEvery = 36 * time.Hour
	env.FlareMeanDuration = 6 * time.Hour
	return mission.Config{
		Seed: seed, Boards: boards, DevicesPerBoard: 9, Duration: duration,
		Workers: workers, Design: "LFSR 72", Geom: geom, Env: env,
		Timing: t.Scale(float64(180*time.Millisecond) / float64(boardScan)),
	}
}

// maxMissions bounds the missions of one op (and keeps their seeds apart
// from the next -seed's).
const maxMissions = 1000

func (w *fleet) setUp() error {
	_, err := mission.Run(paperScenario(w.r.seed*maxMissions, w.boards/2, w.duration, w.r.workers))
	return err
}

func (w *fleet) tearDown() {}

func (w *fleet) op(_ int, root *openSpan, rec *opRecord) error {
	var strikes int64
	for j := int64(0); strikes < w.strikes; j++ {
		if j == maxMissions {
			return fmt.Errorf("%d missions simulated only %d strikes", j, strikes)
		}
		cfg := paperScenario(w.r.seed*maxMissions+j, w.boards, w.duration, w.r.workers)
		sp := root.child("mission.run")
		rep, err := mission.Run(cfg)
		sp.end()
		if err != nil {
			return err
		}
		sp = root.child("mission.marshal")
		b, err := rep.Marshal()
		sp.end()
		if err != nil {
			return err
		}
		rec.items = append(rec.items, item{key: fmt.Sprintf("mission%03d", j), report: b})
		strikes += rep.Env.Strikes
		rec.note("mission.board_days", float64(cfg.Boards*len(rep.StrategyNames))*cfg.Duration.Hours()/24)
	}
	rec.note("mission.strikes", float64(strikes))
	return nil
}

// probe times BuildModel, the placement, decode and flash packing that
// every mission.Run does before it flies a board.
func (w *fleet) probe(_ int, root *openSpan, _ []item) error {
	cfg := paperScenario(w.r.seed*maxMissions, w.boards, w.duration, w.r.workers)
	sp := root.child("mission.build_model")
	_, err := mission.BuildModel(cfg.Design, cfg.Geom, 0.8)
	sp.end()
	return err
}
