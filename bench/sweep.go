package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/board"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crosscheck"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/place"
	"repro/internal/seu"
)

// sweep is a direct-sweep workload: every op places a round of designs and
// sweeps each through seusim -design -json's path, spec → place.Place →
// board.New → seu.RunContext → core.NewCampaignReport JSON bytes.
type sweep struct {
	r      *run
	geom   device.Geometry
	sample float64
	// keys name the round's designs in placement order, cheapest first;
	// the warm-up sweeps keys[0] at warmSample.
	keys       []string
	warmSample float64
	// place builds and places the whole round.
	place func(g device.Geometry, seed int64) ([]*place.Placed, error)
}

// catalogRound places catalogued designs by name.
func catalogRound(names []string) func(device.Geometry, int64) ([]*place.Placed, error) {
	return func(g device.Geometry, _ int64) ([]*place.Placed, error) {
		var ps []*place.Placed
		for _, n := range names {
			spec, err := designs.ByName(n)
			if err != nil {
				return nil, err
			}
			p, err := place.Place(spec.Build(), g)
			if err != nil {
				return nil, fmt.Errorf("placing %s on %s: %w", n, g, err)
			}
			ps = append(ps, p)
		}
		return ps, nil
	}
}

// stressRound places the seeded demoted-lane stress designs (srl, bram, mix).
func stressRound(g device.Geometry, seed int64) ([]*place.Placed, error) {
	ds, err := crosscheck.StressDesigns(g, seed)
	if err != nil {
		return nil, err
	}
	ps := make([]*place.Placed, len(ds))
	for i, d := range ds {
		ps[i] = d.Placed
	}
	return ps, nil
}

func (w *sweep) config(sample float64) core.Config {
	return core.Config{Geom: w.geom, Seed: w.r.seed, Sample: sample, Workers: w.r.workers, Kernel: seu.KernelVector}
}

func (w *sweep) setUp() error {
	ps, err := w.place(w.geom, w.r.seed)
	if err != nil {
		return err
	}
	_, err = w.sweepOne(nil, ps[0], w.keys[0], w.config(w.warmSample))
	return err
}

func (w *sweep) tearDown() {}

func (w *sweep) op(_ int, root *openSpan, rec *opRecord) error {
	sp := root.child("place.build_place")
	ps, err := w.place(w.geom, w.r.seed)
	sp.end()
	if err != nil {
		return err
	}
	for i, p := range ps {
		it, err := w.sweepOne(root, p, w.keys[i], w.config(w.sample))
		if err != nil {
			return err
		}
		rec.items = append(rec.items, it)
	}
	return nil
}

// sweepOne runs one design's campaign and renders its canonical report.
func (w *sweep) sweepOne(root *openSpan, p *place.Placed, key string, cfg core.Config) (item, error) {
	sp := root.child("board.new")
	bd, err := board.New(p, cfg.Seed)
	sp.end()
	if err != nil {
		return item{}, err
	}
	sp = root.child("seu.run")
	rep, err := seu.RunContext(w.r.ctx, bd, cfg.CampaignOptions(true))
	sp.end()
	if err != nil {
		return item{}, fmt.Errorf("%s: %w", key, err)
	}
	sp = root.child("core.emit")
	defer sp.end()
	return campaignItem(key, rep, cfg)
}

// campaignItem renders a campaign's canonical report.
func campaignItem(key string, rep *seu.Report, cfg core.Config) (item, error) {
	b, err := reportJSON(core.NewCampaignReport(rep, cfg))
	return item{key: key, report: b, bits: rep.SensitiveBits}, err
}

// probe times the layers RunContext hides, on a fresh placement so no cache
// filled by the op serves it: CompileVector and SensitivityMask on one
// board, then the chunk-API decomposition of the same campaign on another —
// NewChunkRunner, ChunkRunner.Run over the service's chunk plan on the
// op's worker count, AssembleReport — whose result must equal the op's.
func (w *sweep) probe(_ int, root *openSpan, items []item) error {
	ps, err := w.place(w.geom, w.r.seed)
	if err != nil {
		return err
	}
	cfg := w.config(w.sample)
	opts := cfg.CampaignOptions(true)
	for i, p := range ps {
		bd, err := board.New(p, cfg.Seed)
		if err != nil {
			return err
		}
		sp := root.child("board.compile_vector")
		board.CompileVector(bd)
		sp.end()
		sp = root.child("fpga.sensitivity_mask")
		bd.Golden.SensitivityMask(bd.OutputNetIDs())
		sp.end()

		if bd, err = board.New(p, cfg.Seed); err != nil {
			return err
		}
		rep, err := w.runChunks(root, bd, opts)
		if err != nil {
			return fmt.Errorf("%s chunk API: %w", items[i].key, err)
		}
		it, err := campaignItem(items[i].key, rep, cfg)
		if err != nil {
			return err
		}
		if err := sameResult(it, items[i]); err != nil {
			return fmt.Errorf("chunk API vs RunContext: %w", err)
		}
	}
	return nil
}

// runChunks is the chunk-API decomposition of one campaign: runners on
// r.workers goroutines pull chunks of the service's default plan in order.
func (w *sweep) runChunks(root *openSpan, bd *board.SLAAC1V, opts seu.Options) (*seu.Report, error) {
	sp := root.child("seu.runner_setup")
	base, err := seu.NewChunkRunner(bd, opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	plan := seu.PlanChunks(bd.Geometry(), opts, campaign.DefaultChunks)
	sp = root.child("seu.clone")
	runners := []*seu.ChunkRunner{base}
	for i := 1; i < min(w.r.workers, len(plan)); i++ {
		runners = append(runners, base.Clone(opts.Seed+int64(i)))
	}
	sp.end()

	results := make([]*seu.ChunkResult, len(plan))
	errs := make([]error, len(runners))
	var next atomic.Int64
	var wg sync.WaitGroup
	sim := root.child("seu.simulate")
	for g, rn := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(plan) {
					rn.Release()
					return
				}
				cs := sim.child("seu.chunk")
				results[k], errs[g] = rn.Run(w.r.ctx, plan[k])
				cs.end()
				if errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	sim.end()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sp = root.child("seu.assemble")
	rep := base.AssembleReport(results)
	sp.end()
	return rep, nil
}

// reportJSON renders a report the way seusim -json and the campaign service
// do: two-space indent and a trailing newline.
func reportJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
