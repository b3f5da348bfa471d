package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fabric"
	"repro/internal/seu"
)

// On-disk layout. One directory per job, keyed by the content-addressed job
// ID, so a resubmitted spec finds its own history:
//
//	<root>/<jobID>/state.json    — Status (rewritten on every transition)
//	<root>/<jobID>/manifest.json — chunk checkpoints: plan entry → blob key
//	<root>/<jobID>/report.json   — final report, exact bytes served to clients
//
// Chunk results themselves live in a fabric.BlobStore as content-addressed
// ChunkPayload blobs; the manifest is the small per-job index into it. The
// manifest stays a local file (not a blob) deliberately: it is mutable
// named state — exactly what content addressing can't express — and it is
// the commit point, so "manifest references blob" doubles as the pin root
// for retention. Every write is write-to-temp + rename, so a crash
// mid-write leaves either the old file or the new one, never a torn
// checkpoint; a crash between blob Put and manifest commit leaves only an
// unreferenced blob, which retention may collect once past MinAge.

type store struct {
	root  string
	blobs fabric.BlobStore

	// pins guards checkpoint blobs of resumable jobs against retention:
	// key → refcount (shared blobs — identical results across jobs — pin
	// once per referencing job). jobPins remembers each job's key set so
	// unpin needs no manifest re-read. The same mutex serializes manifest
	// read-modify-write, so concurrent chunk commits can't lose entries.
	mu      sync.Mutex
	pins    map[string]int
	jobPins map[string]map[string]bool
}

func newStore(root string, blobs fabric.BlobStore) *store {
	return &store{
		root:    root,
		blobs:   blobs,
		pins:    make(map[string]int),
		jobPins: make(map[string]map[string]bool),
	}
}

func (st *store) jobDir(id string) string       { return filepath.Join(st.root, id) }
func (st *store) manifestPath(id string) string { return filepath.Join(st.jobDir(id), "manifest.json") }

// writeFileAtomic writes b to path via a temp file in the same directory.
func writeFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

func (st *store) saveStatus(stat *Status) error {
	b, err := json.MarshalIndent(stat, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(st.jobDir(stat.ID), "state.json"), append(b, '\n'))
}

// loadAll returns every persisted job status, oldest submission first.
func (st *store) loadAll() ([]*Status, error) {
	entries, err := os.ReadDir(st.root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Status
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(st.root, e.Name(), "state.json"))
		if err != nil {
			continue // half-created job dir; ignore
		}
		var stat Status
		if err := json.Unmarshal(b, &stat); err != nil || stat.ID != e.Name() {
			continue
		}
		out = append(out, &stat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubmittedAt.Before(out[j].SubmittedAt) })
	return out, nil
}

// manifest indexes a job's committed chunks, ascending by chunk index.
type manifest struct {
	Chunks []manifestEntry `json:"chunks"`
}

// manifestEntry pairs a plan entry with the blob holding its result, so
// resume can reject checkpoints from a stale decomposition (e.g. a daemon
// restarted with a different chunk count) before ever fetching the blob.
type manifestEntry struct {
	Spec seu.ChunkSpec `json:"spec"`
	Blob string        `json:"blob"`
}

// loadManifestLocked reads the job's manifest ({} when absent). Callers
// hold st.mu.
func (st *store) loadManifestLocked(id string) (*manifest, error) {
	b, err := os.ReadFile(st.manifestPath(id))
	if os.IsNotExist(err) {
		return &manifest{}, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		// A corrupt manifest loses resume progress but nothing else — the
		// job simply recomputes.
		return &manifest{}, nil
	}
	return &m, nil
}

func (st *store) saveManifestLocked(id string, m *manifest) error {
	sort.Slice(m.Chunks, func(i, j int) bool { return m.Chunks[i].Spec.Index < m.Chunks[j].Spec.Index })
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(st.manifestPath(id), append(b, '\n'))
}

// saveChunk checkpoints one locally-computed chunk: Put the payload blob,
// then commit it to the manifest. The fabric path skips the Put (the
// worker already uploaded) and calls commitChunk directly.
func (st *store) saveChunk(id string, spec seu.ChunkSpec, cr *seu.ChunkResult) error {
	key, err := fabric.PutChunk(st.blobs, spec, cr)
	if err != nil {
		return err
	}
	return st.commitChunk(id, spec, key)
}

// commitChunk records spec → key in the job's manifest and pins the blob.
// Re-commits of the same chunk are idempotent.
func (st *store) commitChunk(id string, spec seu.ChunkSpec, key string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, err := st.loadManifestLocked(id)
	if err != nil {
		return err
	}
	replaced := false
	for i := range m.Chunks {
		if m.Chunks[i].Spec.Index == spec.Index {
			if m.Chunks[i].Spec == spec && m.Chunks[i].Blob == key {
				return nil // duplicate commit, byte-identical no-op
			}
			m.Chunks[i] = manifestEntry{Spec: spec, Blob: key}
			replaced = true
			break
		}
	}
	if !replaced {
		m.Chunks = append(m.Chunks, manifestEntry{Spec: spec, Blob: key})
	}
	if err := st.saveManifestLocked(id, m); err != nil {
		return err
	}
	st.pinKeyLocked(id, key)
	return nil
}

// loadChunks returns the job's valid checkpoints keyed by chunk index, and
// pins every referenced blob for the duration of the job. A checkpoint
// whose stored range disagrees with the current plan, whose blob is gone,
// or whose blob fails hash validation is dropped from the manifest rather
// than trusted.
func (st *store) loadChunks(id string, plan []seu.ChunkSpec) (map[int]*seu.ChunkResult, error) {
	byIndex := make(map[int]seu.ChunkSpec, len(plan))
	for _, cs := range plan {
		byIndex[cs.Index] = cs
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	m, err := st.loadManifestLocked(id)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*seu.ChunkResult)
	kept := m.Chunks[:0]
	for _, ent := range m.Chunks {
		want, ok := byIndex[ent.Spec.Index]
		if !ok || want != ent.Spec {
			continue // stale decomposition
		}
		cr, err := fabric.LoadChunk(st.blobs, ent.Blob, ent.Spec)
		if err != nil {
			continue // missing, corrupt or mismatched: recompute
		}
		kept = append(kept, ent)
		out[ent.Spec.Index] = cr
	}
	if len(kept) != len(m.Chunks) {
		m.Chunks = kept
		if err := st.saveManifestLocked(id, m); err != nil {
			return nil, err
		}
	}
	for _, ent := range kept {
		st.pinKeyLocked(id, ent.Blob)
	}
	return out, nil
}

// chunkCount reports how many chunks the job's manifest references — the
// checkpoint-density observable tests assert on.
func (st *store) chunkCount(id string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, err := st.loadManifestLocked(id)
	if err != nil {
		return 0
	}
	return len(m.Chunks)
}

func (st *store) pinKeyLocked(id, key string) {
	set := st.jobPins[id]
	if set == nil {
		set = make(map[string]bool)
		st.jobPins[id] = set
	}
	if !set[key] {
		set[key] = true
		st.pins[key]++
	}
}

// pinJob pins every blob the job's manifest references — called at startup
// for each resumable (non-done) job, before any retention sweep runs.
func (st *store) pinJob(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, err := st.loadManifestLocked(id)
	if err != nil {
		return
	}
	for _, ent := range m.Chunks {
		st.pinKeyLocked(id, ent.Blob)
	}
}

// unpinJob releases a job's pins once it reaches StateDone — its report is
// assembled and persisted, so its chunk blobs are retention fodder.
func (st *store) unpinJob(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for key := range st.jobPins[id] {
		if st.pins[key]--; st.pins[key] <= 0 {
			delete(st.pins, key)
		}
	}
	delete(st.jobPins, id)
}

// isPinned is the retention callback: it shares st.mu with commitChunk and
// loadChunks, so a sweep can never observe a blob between "referenced by a
// manifest" and "pinned".
func (st *store) isPinned(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pins[key] > 0
}

func (st *store) saveReport(id string, b []byte) error {
	return writeFileAtomic(filepath.Join(st.jobDir(id), "report.json"), b)
}

func (st *store) loadReport(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.jobDir(id), "report.json"))
}
