package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Wire types of the coordinator API. Workers speak JSON over four routes:
//
//	POST /api/v1/fabric/register   — RegisterRequest → RegisterReply
//	POST /api/v1/fabric/heartbeat  — HeartbeatRequest → {"ok": true}
//	POST /api/v1/fabric/lease      — LeaseRequest → LeaseReply (lease null when idle)
//	POST /api/v1/fabric/complete   — CompleteRequest → CompleteReply
//
// A lease request is a long poll: when the queue is empty it parks until a
// chunk is queued, the client goes away, or leaseWait (10 s) passes, and
// only then answers a null lease. The cap stays well below the worker
// client's 30 s timeout. A closed (draining) coordinator answers 503.
//
// An unknown worker ID answers 404; the worker re-registers and retries —
// registration is soft state the coordinator may drop at any time. Request
// bodies and the replies workers read are capped at maxWireBytes; an
// oversized request answers 413.

// leaseWait caps how long a lease request parks waiting for work.
const leaseWait = 10 * time.Second

// maxWireBytes bounds one coordinator request body or reply (a lease carries
// one campaign spec and chunk, well under a kilobyte).
const maxWireBytes = 1 << 20

// RegisterRequest announces a worker and its capacity.
type RegisterRequest struct {
	Name string `json:"name"`
	CPUs int    `json:"cpus"`
}

// RegisterReply names the worker and sets the cadence contract.
type RegisterReply struct {
	Worker          string `json:"worker"`
	LeaseTTLMillis  int64  `json:"lease_ttl_ms"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
}

// HeartbeatRequest refreshes liveness.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// LeaseRequest asks for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseReply carries the issued lease, or null when the queue is empty.
type LeaseReply struct {
	Lease *Lease `json:"lease"`
}

// CompleteRequest reports a lease's outcome: Blob on success, Error when
// the worker could not run the chunk.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Blob   string `json:"blob,omitempty"`
	Error  string `json:"error,omitempty"`
}

// CompleteReply is the commit verdict. Exactly one of the booleans is set:
// Accepted (committed, or an absorbed duplicate/failure report), Stale (the
// lease is gone — drop the result), or Rejected (validation failed; the
// chunk re-queued).
type CompleteReply struct {
	Accepted  bool   `json:"accepted,omitempty"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Stale     bool   `json:"stale,omitempty"`
	Rejected  bool   `json:"rejected,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// Handler serves the coordinator API.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/fabric/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		writeFabricJSON(w, http.StatusOK, c.Register(req.Name, req.CPUs))
	})
	mux.HandleFunc("POST /api/v1/fabric/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.Worker); err != nil {
			fabricError(w, http.StatusNotFound, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /api/v1/fabric/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		lease, err := c.Lease(r.Context(), req.Worker, leaseWait)
		if err != nil {
			code := http.StatusNotFound
			if errors.Is(err, ErrClosed) {
				code = http.StatusServiceUnavailable
			}
			fabricError(w, code, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, LeaseReply{Lease: lease})
	})
	mux.HandleFunc("POST /api/v1/fabric/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeRequest(w, r, &req) {
			return
		}
		reply, err := c.Complete(req.Worker, req.Lease, req.Blob, req.Error)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrUnknownWorker) {
				code = http.StatusNotFound
			}
			fabricError(w, code, err)
			return
		}
		writeFabricJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("GET /api/v1/fabric/stats", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

// decodeRequest decodes a JSON request body of at most maxWireBytes. On
// failure it answers 413 (too large) or 400 itself and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		code = http.StatusRequestEntityTooLarge
	}
	fabricError(w, code, err)
	return false
}

// readBounded reads all of r, failing when it holds more than limit bytes.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(b)) > limit {
		err = fmt.Errorf("fabric: reply exceeds %d bytes", limit)
	}
	return b, err
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func fabricError(w http.ResponseWriter, code int, err error) {
	writeFabricJSON(w, code, map[string]string{"error": fmt.Sprint(err)})
}
