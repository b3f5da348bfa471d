package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one timed op share Op; Parent is 0 for
// an op's root span ("op") and for the root of its standalone probes
// ("probe").
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the payload of a blob-store call; Empty marks a lease poll
	// that found the queue empty.
	Bytes int64 `json:"bytes,omitempty"`
	Empty bool  `json:"empty,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's call belongs to: the name up to its first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps every span in memory; they are written out once the run ends.
// A nil *tracer (an untraced run) records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// cur is the span that calls made from inside the program — blob-store
	// and HTTP calls by scheduler and worker goroutines — are recorded under.
	cur atomic.Pointer[openSpan]

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose call is still running. A nil *openSpan is a
// no-op, so an untraced op runs the same code with a nil root.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) open(parent int64, op int, name string) *openSpan {
	return &openSpan{t: t, s: span{
		ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)),
	}}
}

// root opens the root span of op i ("op" for the timed call, "probe" for
// the standalone probes after it).
func (t *tracer) root(name string, op int) *openSpan {
	if t == nil {
		return nil
	}
	return t.open(0, op, name)
}

// child opens a span under p.
func (p *openSpan) child(name string) *openSpan {
	if p == nil {
		return nil
	}
	return p.t.open(p.s.ID, p.s.Op, name)
}

// end closes the span and records it.
func (p *openSpan) end() {
	if p == nil {
		return
	}
	p.s.End = int64(time.Since(p.t.t0))
	p.t.mu.Lock()
	p.t.spans = append(p.t.spans, p.s)
	p.t.mu.Unlock()
}

// setCurrent makes p the parent of calls recorded from inside the program.
func (t *tracer) setCurrent(p *openSpan) {
	if t != nil {
		t.cur.Store(p)
	}
}

// current returns the parent for calls recorded from inside the program,
// nil when no traced op is running.
func (t *tracer) current() *openSpan {
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerSelf returns the self time of each layer within one root span: the
// union of the layer's span intervals minus the union of the calls those
// spans made into other layers. Unions rather than sums keep calls made
// concurrently (two workers' blob writes) from counting twice, so the layer
// self times and the root's own self time (under "" — time no span
// accounts for) add up to the root's duration.
func layerSelf(root span, spans []span) map[string]int64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	own := make(map[string][]span)   // layer → its spans
	calls := make(map[string][]span) // layer → its spans' calls into other layers
	var top []span
	for _, s := range spans {
		if s.Parent == root.ID {
			top = append(top, s)
		}
		own[s.layer()] = append(own[s.layer()], s)
		if p, ok := byID[s.Parent]; ok && p.layer() != s.layer() {
			calls[p.layer()] = append(calls[p.layer()], s)
		}
	}
	self := map[string]int64{"": root.dur() - covered(root, top)}
	for l, ss := range own {
		self[l] = covered(root, ss) - covered(root, calls[l])
	}
	return self
}

// covered is the length of the union of the spans' intervals, clipped to
// the parent's.
func covered(parent span, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, c := range spans {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}
