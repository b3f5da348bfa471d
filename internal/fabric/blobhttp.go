package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The S3-style HTTP blob plane. BlobHandler exposes any BlobStore over four
// routes (mounted by campaignd's coordinator mode and by the standalone
// cmd/blobd), and HTTPStore is the matching BlobStore client, so a worker
// node checkpoints through exactly the same interface a single-node daemon
// uses against its local directory:
//
//	POST   /api/v1/blobs        — body is the blob; returns {"key": ...}
//	GET    /api/v1/blobs        — list blobs, oldest first
//	GET    /api/v1/blobs/{key}  — the blob's bytes
//	DELETE /api/v1/blobs/{key}  — remove a blob
//
// MaxBlobBytes bounds one blob (a serialized chunk result is a few KB; the
// cap just keeps a misbehaving client from ballooning the store).
const MaxBlobBytes = 64 << 20

// BlobHandler serves s over the HTTP blob API.
func BlobHandler(s BlobStore) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/blobs", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(io.LimitReader(r.Body, MaxBlobBytes+1))
		if err != nil {
			blobError(w, http.StatusBadRequest, err)
			return
		}
		if len(b) > MaxBlobBytes {
			blobError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("blob exceeds %d bytes", MaxBlobBytes))
			return
		}
		key, err := s.Put(b)
		if err != nil {
			blobError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"key": key})
	})
	mux.HandleFunc("GET /api/v1/blobs", func(w http.ResponseWriter, r *http.Request) {
		infos, err := s.List()
		if err != nil {
			blobError(w, http.StatusInternalServerError, err)
			return
		}
		if infos == nil {
			infos = []BlobInfo{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(infos)
	})
	mux.HandleFunc("GET /api/v1/blobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		b, err := s.Get(r.PathValue("key"))
		if err != nil {
			blobError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(b)
	})
	mux.HandleFunc("DELETE /api/v1/blobs/{key}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Delete(r.PathValue("key")); err != nil {
			blobError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func blobError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// HTTPStore is a BlobStore backed by a remote blob server. Get re-validates
// bytes against the key client-side — the server is not trusted to have
// done so.
type HTTPStore struct {
	base   string
	client *http.Client
}

// NewHTTPStore returns a store speaking to the blob API at base (e.g. the
// coordinator's own address, or a standalone blobd).
func NewHTTPStore(base string) *HTTPStore {
	return &HTTPStore{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

func (s *HTTPStore) url(suffix string) string { return s.base + "/api/v1/blobs" + suffix }

func (s *HTTPStore) Put(b []byte) (string, error) {
	resp, err := s.client.Post(s.url(""), "application/octet-stream", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body, maxWireBytes)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("fabric: blob put: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var reply struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return "", err
	}
	// Verify the server derived the key honestly before anyone references it.
	if want := HashKey(b); reply.Key != want {
		storeValidationFailures.Add(1)
		return "", fmt.Errorf("fabric: blob server returned key %s for content %s", reply.Key, want)
	}
	return reply.Key, nil
}

func (s *HTTPStore) Get(key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("fabric: malformed blob key %q", key)
	}
	resp, err := s.client.Get(s.url("/" + key))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body, MaxBlobBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fabric: blob get %s: %s: %s", key, resp.Status, bytes.TrimSpace(body))
	}
	if err := verifyBlob(key, body); err != nil {
		return nil, err
	}
	return body, nil
}

func (s *HTTPStore) List() ([]BlobInfo, error) {
	resp, err := s.client.Get(s.url(""))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body, MaxBlobBytes) // a listing of many blobs
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fabric: blob list: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var infos []BlobInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

func (s *HTTPStore) Delete(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("fabric: malformed blob key %q", key)
	}
	req, err := http.NewRequest(http.MethodDelete, s.url("/"+key), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fabric: blob delete %s: %s", key, resp.Status)
	}
	return nil
}
