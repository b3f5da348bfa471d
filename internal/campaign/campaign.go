// Package campaign is the ground-side campaign service: a checkpointed job
// scheduler for the batch workloads the paper's workflow dispatches per
// design — exhaustive SEU sweeps, BIST diagnostics, and scrub-mission
// simulations. Jobs are content-addressed (the job ID is a hash of the
// canonical spec), shard over a bounded worker pool reusing the SEU
// campaign's deterministic chunking, and checkpoint per-shard progress to
// disk, so a daemon killed mid-sweep — or a job cancelled and resubmitted —
// resumes where it stopped and still produces a final report byte-identical
// to an uninterrupted run. cmd/campaignd exposes the scheduler over HTTP
// with NDJSON progress streaming and a Prometheus-text metrics plane.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
)

// JobKind names a workload class.
type JobKind string

const (
	// KindSEU is an injection campaign (core.CampaignSpec), the only kind
	// with sub-job checkpoints: each address-range chunk persists on
	// completion.
	KindSEU JobKind = "seu"
	// KindBIST runs built-in self-tests on an idle device.
	KindBIST JobKind = "bist"
	// KindMission runs the nine-FPGA payload through the orbit environment.
	KindMission JobKind = "mission"
)

// BISTSpec selects the self-tests of a BIST job. At least one test must be
// enabled.
type BISTSpec struct {
	Geom string `json:"geom,omitempty"`
	Wire bool   `json:"wire,omitempty"`
	CLB  bool   `json:"clb,omitempty"`
	BRAM bool   `json:"bram,omitempty"`
}

// MissionSpec configures a scrub-mission job.
type MissionSpec struct {
	Design string `json:"design"`
	Geom   string `json:"geom,omitempty"`
	Seed   int64  `json:"seed"`
	// Duration is a time.ParseDuration spelling, e.g. "2h".
	Duration string `json:"duration"`
	// PeriodicFullReconfig, when set, enables the blind-refresh ablation
	// at this positive period.
	PeriodicFullReconfig string `json:"periodic_full_reconfig,omitempty"`
}

// JobSpec is the wire form of one job: a kind plus exactly the matching
// payload. Specs are canonicalized by JSON marshalling, and the job ID is a
// hash of that canonical form — identical specs share an identity and a
// checkpoint directory, which is what makes cancel-and-resubmit resume
// rather than restart.
type JobSpec struct {
	Kind    JobKind            `json:"kind"`
	SEU     *core.CampaignSpec `json:"seu,omitempty"`
	BIST    *BISTSpec          `json:"bist,omitempty"`
	Mission *MissionSpec       `json:"mission,omitempty"`
}

// Validate checks the spec resolves to a runnable job.
func (s *JobSpec) Validate() error {
	set := 0
	for _, present := range []bool{s.SEU != nil, s.BIST != nil, s.Mission != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("campaign: spec must carry exactly one of seu/bist/mission, has %d", set)
	}
	switch s.Kind {
	case KindSEU:
		if s.SEU == nil {
			return fmt.Errorf("campaign: kind %q without seu payload", s.Kind)
		}
		if s.SEU.Design == "" {
			return fmt.Errorf("campaign: seu job needs a design")
		}
		if _, err := s.SEU.Resolve(); err != nil {
			return err
		}
	case KindBIST:
		if s.BIST == nil {
			return fmt.Errorf("campaign: kind %q without bist payload", s.Kind)
		}
		if !s.BIST.Wire && !s.BIST.CLB && !s.BIST.BRAM {
			return fmt.Errorf("campaign: bist job enables no tests")
		}
		if _, err := core.ParseGeometry(s.BIST.Geom); err != nil {
			return err
		}
	case KindMission:
		if s.Mission == nil {
			return fmt.Errorf("campaign: kind %q without mission payload", s.Kind)
		}
		if s.Mission.Design == "" {
			return fmt.Errorf("campaign: mission job needs a design")
		}
		if _, err := core.ParseGeometry(s.Mission.Geom); err != nil {
			return err
		}
		d, err := time.ParseDuration(s.Mission.Duration)
		if err != nil || d <= 0 {
			return fmt.Errorf("campaign: bad mission duration %q", s.Mission.Duration)
		}
		if s.Mission.PeriodicFullReconfig != "" {
			if r, err := time.ParseDuration(s.Mission.PeriodicFullReconfig); err != nil || r <= 0 {
				return fmt.Errorf("campaign: bad periodic_full_reconfig %q", s.Mission.PeriodicFullReconfig)
			}
		}
	default:
		return fmt.Errorf("campaign: unknown job kind %q", s.Kind)
	}
	return nil
}

// ID returns the job's content-addressed identifier.
func (s JobSpec) ID() string {
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec is a closed struct of marshalable fields; this cannot
		// fire outside programmer error.
		panic(fmt.Sprintf("campaign: marshalling spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return "j" + hex.EncodeToString(sum[:6])
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (st State) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// Status is the externally visible job record, persisted as the job's
// state.json and served over the HTTP API. The final report itself lives in
// a sibling report.json whose bytes are served verbatim, keeping the
// determinism promise out of reach of re-marshalling.
type Status struct {
	ID          string     `json:"id"`
	Spec        JobSpec    `json:"spec"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Error       string     `json:"error,omitempty"`

	// Progress. ChunksTotal/ChunksDone count checkpoint units (1 for
	// un-chunked kinds); Injections/Failures accumulate checkpointed chunk
	// results.
	ChunksTotal int   `json:"chunks_total,omitempty"`
	ChunksDone  int   `json:"chunks_done,omitempty"`
	Injections  int64 `json:"injections,omitempty"`
	Failures    int64 `json:"failures,omitempty"`
}

// Event is one NDJSON progress record of a job's stream.
type Event struct {
	Job         string    `json:"job"`
	State       State     `json:"state"`
	ChunksDone  int       `json:"chunks_done"`
	ChunksTotal int       `json:"chunks_total"`
	Injections  int64     `json:"injections"`
	Failures    int64     `json:"failures"`
	Error       string    `json:"error,omitempty"`
	Final       bool      `json:"final,omitempty"`
	Time        time.Time `json:"time"`
}

// event snapshots a status into its stream record.
func event(stat *Status) Event {
	return Event{
		Job:         stat.ID,
		State:       stat.State,
		ChunksDone:  stat.ChunksDone,
		ChunksTotal: stat.ChunksTotal,
		Injections:  stat.Injections,
		Failures:    stat.Failures,
		Error:       stat.Error,
		Final:       stat.State.Terminal(),
		Time:        time.Now().UTC(),
	}
}
