package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	exrquy "repro"
	"repro/internal/obs"
	"repro/internal/qerr"
)

// Out-of-core store management: attach/detach on-disk columnar stores
// (built by xmarkgen -store or Engine.WriteStoreReplicated) at runtime, the
// serving-layer face of Engine.AttachStore/DetachStore. Attaching makes
// the store's documents queryable immediately; detaching removes them
// from the registry at once and releases the mappings only after
// in-flight queries drain. Both invalidate exactly the cached plans
// that read the affected documents, like document hot-reload does.

var (
	storeAttachesTotal = obs.Default.Counter("server_store_attaches_total")
	storeDetachesTotal = obs.Default.Counter("server_store_detaches_total")
	storeScrubsTotal   = obs.Default.Counter("server_store_scrubs_total")
)

// storeRoutes wires the /stores endpoints (called from routes).
func (s *Server) storeRoutes() {
	s.mux.HandleFunc("POST /stores", s.handleAttachStore)
	s.mux.HandleFunc("GET /stores", s.handleListStores)
	s.mux.HandleFunc("DELETE /stores", s.handleDetachStore)
	s.mux.HandleFunc("POST /stores/scrub", s.handleScrubStores)
}

// attachRequest is the POST /stores body: the directories of one store
// (several when a corpus is sharded across directories).
type attachRequest struct {
	Dirs []string `json:"dirs"`
}

type storeResponse struct {
	Key  string   `json:"key"`
	URIs []string `json:"uris"`
}

// handleAttachStore mounts an on-disk store. Corrupt stores answer 500
// with code "corrupt_store" (server-side state, not the request's
// fault); the request itself can still be malformed (400).
func (s *Server) handleAttachStore(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	var req attachRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, qerr.Newf(qerr.ErrParse, "request", "bad attach body: %v", err))
		return
	}
	if len(req.Dirs) == 0 {
		writeError(w, qerr.Newf(qerr.ErrParse, "request", "attach needs at least one directory"))
		return
	}
	uris, err := s.eng.AttachStore(req.Dirs...)
	if err != nil {
		writeError(w, err)
		return
	}
	// A mounted document may shadow a previously loaded one of the same
	// name: drop exactly the plans that read it.
	for _, uri := range uris {
		s.cache.invalidateDoc(uri)
	}
	storeAttachesTotal.Inc()
	key := req.Dirs[0]
	for _, m := range s.eng.Stores() {
		if len(m.Dirs) > 0 && m.Dirs[0] == req.Dirs[0] {
			key = m.Key
		}
	}
	writeJSON(w, http.StatusCreated, storeResponse{Key: key, URIs: uris})
}

// handleListStores reports the attached stores with freshly sampled
// residency (mapped vs resident bytes per part).
func (s *Server) handleListStores(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	s.eng.SampleStores()
	mounts := s.eng.Stores()
	if mounts == nil {
		mounts = []exrquy.StoreMountInfo{}
	}
	writeJSON(w, http.StatusOK, mounts)
}

// handleScrubStores runs one synchronous scrub pass over every attached
// store — re-verifying part-file checksums, quarantining corrupt
// replicas and restoring them from healthy copies — and answers with
// each mount's cumulative scrub counters. ?bps= paces the verification
// reads (bytes/second; 0 or absent = unpaced).
func (s *Server) handleScrubStores(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	var bps int64
	if v := strings.TrimSpace(r.URL.Query().Get("bps")); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, qerr.Newf(qerr.ErrParse, "request", "bad ?bps=%q", v))
			return
		}
		bps = n
	}
	stats := s.eng.ScrubStores(bps)
	storeScrubsTotal.Inc()
	writeJSON(w, http.StatusOK, stats)
}

// handleDetachStore unmounts the store keyed by ?dir= (the first
// directory it was attached with).
func (s *Server) handleDetachStore(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	dir := strings.TrimSpace(r.URL.Query().Get("dir"))
	if dir == "" {
		writeError(w, qerr.Newf(qerr.ErrParse, "request", "detach needs ?dir="))
		return
	}
	// Resolve the canonical mount key before the mount disappears.
	key := dir
	for _, m := range s.eng.Stores() {
		if len(m.Dirs) > 0 && m.Dirs[0] == dir {
			key = m.Key
		}
	}
	uris, err := s.eng.DetachStore(dir)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{
			Error:  fmt.Sprintf("%v", err),
			Status: http.StatusNotFound,
		})
		return
	}
	for _, uri := range uris {
		s.cache.invalidateDoc(uri)
	}
	storeDetachesTotal.Inc()
	writeJSON(w, http.StatusOK, storeResponse{Key: key, URIs: uris})
}
