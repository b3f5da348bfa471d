package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxSpecBytes bounds a submitted JobSpec body; a larger one answers 413.
const maxSpecBytes = 1 << 20

// Handler exposes the scheduler over HTTP:
//
//	POST /api/v1/jobs               — submit a JobSpec, returns its Status
//	GET  /api/v1/jobs               — list jobs
//	GET  /api/v1/jobs/{id}          — one job's Status
//	POST /api/v1/jobs/{id}/cancel   — cancel a job
//	GET  /api/v1/jobs/{id}/stream   — NDJSON progress events until terminal
//	GET  /api/v1/jobs/{id}/report   — the final report's exact bytes
//	GET  /healthz                   — liveness
//	GET  /metrics                   — Prometheus text exposition
func Handler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("decoding spec: %w", err))
			return
		}
		stat, err := s.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, stat)
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		stat, ok := s.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, stat)
	})
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		stat, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, stat)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		streamJob(s, w, r)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		b, err := s.Report(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics.WritePrometheus(w, s.JobsByState())
	})
	return mux
}

// streamJob writes the job's progress as NDJSON: an immediate snapshot, then
// every event until the job reaches a terminal state (or the client leaves).
// Subscribing before the snapshot closes the gap where a transition lands
// between the two.
func streamJob(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, cancel := s.Subscribe(id)
	defer cancel()
	stat, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	send := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return !ev.Final
	}
	if !send(event(stat)) {
		return
	}
	// Heartbeat snapshots keep long quiet chunks visible and bound how long
	// a dead connection lingers.
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok || !send(ev) {
				return
			}
		case <-tick.C:
			stat, ok := s.Get(id)
			if !ok || !send(event(stat)) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
