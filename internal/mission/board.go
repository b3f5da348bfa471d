package mission

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/flash"
	"repro/internal/groundlink"
	"repro/internal/radiation"
	"repro/internal/scrub"
)

// histBuckets is the number of scrub-latency histogram buckets: bucket i
// counts repairs with latency in [2^(i-1), 2^i) microseconds (bucket 0 is
// sub-microsecond), the last bucket is open-ended.
const histBuckets = 28

func latencyBucket(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// strategyParams is the resolved cost model of one scrub policy.
type strategyParams struct {
	strat scrub.Strategy
	id    uint8
	// perFrame is the scan dwell per frame; scanCycle the full no-error
	// pass (redundancy scans its duplicated frames too).
	perFrame  time.Duration
	scanCycle time.Duration
	// repairWrite is one partial-reconfiguration frame write.
	repairWrite time.Duration
	// fullConfig is a complete reload (restores half-latches, recovers
	// control-logic upsets).
	fullConfig time.Duration
	// refreshEvery schedules blind scrubbing's periodic full
	// reconfiguration; zero for the readback-based policies.
	refreshEvery time.Duration
}

func (c *Config) params(s scrub.Strategy, m *Model) strategyParams {
	p := strategyParams{
		strat:       s,
		id:          uint8(s),
		perFrame:    c.Timing.PerFrame(s),
		scanCycle:   c.Timing.ScanCycle(s, m.Frames, m.ProtectedCount),
		repairWrite: c.Timing.FrameWrite,
		fullConfig:  c.Timing.FullConfig,
	}
	if s == scrub.StrategyBlind {
		p.refreshEvery = c.BlindRefreshEvery
	}
	return p
}

// nextTouch returns the first time >= from at which the scanner's cyclic
// pointer reaches frame f. Frame f is touched at offset f*perFrame within
// every scan cycle.
func (p strategyParams) nextTouch(f int32, from time.Duration) time.Duration {
	off := time.Duration(f) * p.perFrame
	if from <= off {
		return off
	}
	cyc := p.scanCycle
	k := (from - off + cyc - 1) / cyc
	return off + k*cyc
}

// stratResult is one board's outcome under one strategy.
type stratResult struct {
	detections    int64
	repairs       int64
	fullReconfigs int64
	masked        int64
	unrecovered   int64
	hlRestored    int64

	mttrSumNs   int64
	mttrCount   int64
	scrubCycles int64
	latHist     [histBuckets]int64

	downtimeNs int64
	// availability is this board's device-time uptime fraction.
	availability float64

	flashReads     int64
	flashCorrected int64
	flashDoubles   int64
	flashFallbacks int64

	telemetryRecords int64
	telemetryFrames  int64
	telemetryBytes   int64
	downlinkNs       int64
	passes           int64
	deferred         int64
	dropped          int64

	events []groundlink.TelemetryRecord
}

// boardSim carries one board's mutable state through a strategy run.
type boardSim struct {
	m   *Model
	cfg *Config
	p   strategyParams
	res stratResult

	downUntil []time.Duration // per device, capped at mission end
	hlDamage  []int64         // per device pending half-latch damage
	fl        *flash.Store
	events    []groundlink.TelemetryRecord
}

// simStrategy replays board b's strike history under one scrub policy.
// Strikes are processed in time order; every repair instant is computed
// analytically from the scanner's cyclic position, so the loop is O(strikes)
// regardless of mission length.
func simStrategy(m *Model, cfg *Config, p strategyParams, strikes []Strike) stratResult {
	s := &boardSim{
		m: m, cfg: cfg, p: p,
		downUntil: make([]time.Duration, cfg.DevicesPerBoard),
		hlDamage:  make([]int64, cfg.DevicesPerBoard),
		fl:        m.FlashProto.Clone(),
	}
	for i := range strikes {
		s.apply(&strikes[i])
	}
	// Blind scrubbing's scheduled refreshes run whether or not anything
	// was hit.
	if p.refreshEvery > 0 {
		s.res.fullReconfigs += int64(cfg.Duration/p.refreshEvery) * int64(cfg.DevicesPerBoard)
	}
	// Half-latch damage still standing at mission end was never restored.
	for _, n := range s.hlDamage {
		s.res.unrecovered += n
	}
	s.res.scrubCycles = int64(cfg.Duration/p.scanCycle) * int64(cfg.DevicesPerBoard)
	devTime := int64(cfg.Duration) * int64(cfg.DevicesPerBoard)
	s.res.availability = 1 - float64(s.res.downtimeNs)/float64(devTime)
	s.downlink()
	st := s.fl.Device().Stats()
	s.res.flashReads = st.Reads
	s.res.flashCorrected = st.CorrectedSingles
	s.res.flashDoubles = st.DetectedDoubles
	return s.res
}

func (s *boardSim) apply(st *Strike) {
	switch st.Kind {
	case radiation.StrikeConfig:
		s.configStrike(st)
	case radiation.StrikeControl:
		s.controlStrike(st)
	case radiation.StrikeHalfLatch:
		s.halfLatchStrike(st)
	case StrikeFlash:
		s.fl.Device().UpsetBit(st.FlashBit % (int64(s.fl.Device().Capacity()) * 8))
	case radiation.StrikeUserFF:
		// Transient design state: invisible to every scrub policy, flushed
		// by the design's own operation. Counted in the environment
		// section; no strategy outcome.
	}
}

// outage accounts device downtime over [start, end), merging overlap with
// an existing outage on the device.
func (s *boardSim) outage(dev uint8, start, end time.Duration) {
	if end > s.cfg.Duration {
		end = s.cfg.Duration
	}
	from := start
	if s.downUntil[dev] > from {
		from = s.downUntil[dev]
	}
	if end > from {
		s.res.downtimeNs += int64(end - from)
	}
	if end > s.downUntil[dev] {
		s.downUntil[dev] = end
	}
}

func (s *boardSim) record(r groundlink.TelemetryRecord) {
	if len(s.events) < s.cfg.MaxEventsPerBoard {
		s.events = append(s.events, r)
		return
	}
	s.res.dropped++
}

// configStrike handles a (possibly multi-bit) configuration upset: the
// cluster sits in its frame(s) until the scanner's pointer arrives, then
// partial reconfiguration rewrites the frame(s) from the flash golden
// store. Critical clusters take the device down for the interim unless
// configuration redundancy masks them.
func (s *boardSim) configStrike(st *Strike) {
	p := s.p
	from := st.At
	if p.strat == scrub.StrategyNeighbor {
		// The neighbour that scrubs this device may itself be down; its
		// repairs stall until it recovers.
		nb := (st.Device + 1) % uint8(s.cfg.DevicesPerBoard)
		if s.downUntil[nb] > from {
			from = s.downUntil[nb]
		}
	}
	touch := p.nextTouch(st.Frame, from)
	framesHit := int64(1)
	if st.Frame2 >= 0 {
		framesHit = 2
	}
	end := touch + time.Duration(framesHit)*p.repairWrite

	// Configuration redundancy: a critical cluster confined to one
	// duplicated frame is functionally masked by the surviving copy until
	// repair. A cluster straddling two frames can corrupt both members of
	// an adjacent duplicated pair, so it is never masked.
	masked := false
	if p.strat == scrub.StrategyRedundant && st.Critical &&
		st.Frame2 < 0 && s.m.Protected[st.Frame] {
		masked = true
	}

	if end > s.cfg.Duration {
		// Never repaired: damage stands at mission end.
		s.res.unrecovered += framesHit
		if st.Critical && !masked {
			s.outage(st.Device, st.At, s.cfg.Duration)
		}
		return
	}

	latency := end - st.At
	s.res.latHist[latencyBucket(latency)]++
	s.res.repairs += framesHit
	s.fetchGolden(s.m.FrameOffset(st.Frame), s.m.FrameBytes, st.Frame, end)
	if st.Frame2 >= 0 {
		s.fetchGolden(s.m.FrameOffset(st.Frame2), s.m.FrameBytes, st.Frame2, end)
	}
	if p.strat != scrub.StrategyBlind {
		// Readback-based policies actually observe the mismatch; blind
		// rewriting erases it without ever knowing.
		s.res.detections++
		s.record(groundlink.TelemetryRecord{
			At: touch, Device: st.Device, Kind: groundlink.TelDetect,
			Frame: st.Frame, Data: uint32((touch - st.At) / time.Microsecond),
		})
		kind := groundlink.TelRepair
		if masked {
			kind = groundlink.TelMasked
			s.res.masked++
		}
		s.record(groundlink.TelemetryRecord{
			At: end, Device: st.Device, Kind: kind,
			Frame: st.Frame, Data: uint32(latency / time.Microsecond),
		})
	}
	if st.Critical && !masked {
		s.outage(st.Device, st.At, end)
		s.res.mttrSumNs += int64(latency)
		s.res.mttrCount++
	}
}

// controlStrike handles an upset in the configuration control logic: the
// device drops off the scan (unprogrammed) until a full reconfiguration.
func (s *boardSim) controlStrike(st *Strike) {
	p := s.p
	var detect time.Duration
	switch p.strat {
	case scrub.StrategyBlind:
		// Blind rewriting cannot restart an unprogrammed device; the
		// scheduled periodic full reconfiguration is the only recovery.
		k := st.At/p.refreshEvery + 1
		detect = k * p.refreshEvery
	case scrub.StrategyNeighbor:
		nb := (st.Device + 1) % uint8(s.cfg.DevicesPerBoard)
		from := st.At
		if s.downUntil[nb] > from {
			from = s.downUntil[nb]
		}
		detect = from + p.perFrame
	default:
		// The rad-hard controller notices the dead readback on its next
		// frame access.
		detect = st.At + p.perFrame
	}
	end := detect + p.fullConfig
	if end > s.cfg.Duration {
		s.res.unrecovered++
		s.outage(st.Device, st.At, s.cfg.Duration)
		return
	}
	s.outage(st.Device, st.At, end)
	s.res.fullReconfigs++
	s.res.mttrSumNs += int64(end - st.At)
	s.res.mttrCount++
	s.res.latHist[latencyBucket(end-st.At)]++
	// Full reconfiguration reloads the entire golden image through the
	// ECC flash path and restores the device's half-latches.
	s.fetchGolden(0, len(s.m.Golden), -1, end)
	s.res.hlRestored += s.hlDamage[st.Device]
	s.hlDamage[st.Device] = 0
	s.record(groundlink.TelemetryRecord{
		At: end, Device: st.Device, Kind: groundlink.TelFullReconfig,
		Frame: -1, Data: uint32((end - st.At) / time.Millisecond),
	})
}

// halfLatchStrike handles hidden keeper damage: invisible to readback,
// repaired only by full reconfiguration.
func (s *boardSim) halfLatchStrike(st *Strike) {
	if s.p.refreshEvery > 0 {
		// Blind scrubbing's periodic refresh restores it at the next
		// boundary (if one remains before mission end).
		k := st.At/s.p.refreshEvery + 1
		if k*s.p.refreshEvery <= s.cfg.Duration {
			s.res.hlRestored++
			return
		}
	}
	s.hlDamage[st.Device]++
}

// fetchGolden models a golden fetch of n bytes at off through the board's
// ECC flash: repair frame f, or the full image (f = -1) for a full
// reconfiguration. A single-bit flash upset inside the extent is corrected
// transparently, a double-bit error forces a fallback to a redundant stored
// copy (the flight flash holds "more than twenty" bitstreams) that also
// restores the primary extent. Either is reported as a flash ECC telemetry
// record for frame f.
func (s *boardSim) fetchGolden(off int64, n int, f int32, at time.Duration) {
	before := s.fl.Device().Stats().CorrectedSingles
	err := s.fl.VerifyAt(goldenBlob, off, n)
	if err != nil {
		s.res.flashFallbacks++
		// The extent lies inside the golden blob, so the rewrite cannot fail.
		_ = s.fl.WriteAt(goldenBlob, off, s.m.Golden[off:off+int64(n)])
	}
	if err != nil || s.fl.Device().Stats().CorrectedSingles > before {
		s.record(groundlink.TelemetryRecord{
			At: at, Kind: groundlink.TelFlashECC, Frame: f,
		})
	}
}

// downlink packages the board's pending telemetry into groundlink frames
// and plays them through the ground-station pass schedule: one contact
// window every PassEvery, records downlinked oldest-first, whatever the
// contact budget cannot carry deferred to the next pass.
func (s *boardSim) downlink() {
	// Repair completions can finish out of strike order (a long blind
	// latency overlapping a short one); the downlink queue is
	// time-ordered.
	sort.SliceStable(s.events, func(a, b int) bool {
		ea, eb := s.events[a], s.events[b]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		if ea.Device != eb.Device {
			return ea.Device < eb.Device
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		return ea.Frame < eb.Frame
	})
	s.res.events = s.events
	s.res.telemetryRecords = int64(len(s.events))

	link := groundlink.Flight()
	idx := 0
	for passStart := s.cfg.PassEvery; passStart <= s.cfg.Duration+s.cfg.PassEvery-1; passStart += s.cfg.PassEvery {
		s.res.passes++
		budget := s.cfg.PassContact
		for idx < len(s.events) {
			// Only records generated before the pass are on board.
			n := 0
			for idx+n < len(s.events) && n < groundlink.MaxTelemetryRecords && s.events[idx+n].At <= passStart {
				n++
			}
			if n == 0 {
				break
			}
			cost := link.TransferTime(groundlink.TelemetryFrameSize(n))
			if cost > budget {
				break
			}
			budget -= cost
			s.res.downlinkNs += int64(cost)
			s.res.telemetryBytes += int64(groundlink.TelemetryFrameSize(n))
			s.res.telemetryFrames++
			idx += n
		}
		if passStart >= s.cfg.Duration {
			break
		}
	}
	s.res.deferred = int64(len(s.events) - idx)
}
