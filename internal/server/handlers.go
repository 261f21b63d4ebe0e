package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	exrquy "repro"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/resilience"
)

// routes wires the endpoint table (Go 1.22 method patterns). Only the
// /query route passes through the fault-injection middleware (a no-op
// while no fault plan is armed, as in production): chaos drills target
// the query path, while health checks and document management stay
// truthful.
func (s *Server) routes() {
	query := resilience.InjectFaults(http.HandlerFunc(s.handleQuery))
	s.mux.Handle("GET /query", query)
	s.mux.Handle("POST /query", query)
	s.mux.HandleFunc("PUT /documents/{name}", s.handlePutDocument)
	s.mux.HandleFunc("DELETE /documents/{name}", s.handleDeleteDocument)
	s.mux.HandleFunc("GET /documents", s.handleListDocuments)
	s.storeRoutes()
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// errorBody is the JSON error envelope every non-2xx answer carries.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// Code is the machine-readable error class (qerr.Code plus the
	// serving layer's own "draining", "breaker_open", "watchdog_killed",
	// "unauthorized"). Clients branch on it instead of parsing Error —
	// in particular it is how a retrying client tells the two 429 classes
	// ("rate_limited" vs "overloaded") apart.
	Code         string `json:"code,omitempty"`
	Phase        string `json:"phase,omitempty"`
	Line         int    `json:"line,omitempty"`
	Col          int    `json:"col,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// writeError maps err through qerr.HTTPStatus and renders the envelope.
// Overload and rate-limit answers carry Retry-After (whole seconds,
// rounded up, so a 100ms hint still tells the client to back off a beat)
// and the exact hint as retry_after_ms in the body.
func writeError(w http.ResponseWriter, err error) {
	status := qerr.HTTPStatus(err)
	body := errorBody{Error: err.Error(), Status: status, Code: qerr.Code(err), Phase: qerr.PhaseOf(err)}
	if line, col, ok := qerr.PositionOf(err); ok {
		body.Line, body.Col = line, col
	}
	if hint, ok := qerr.RetryAfterOf(err); ok {
		body.RetryAfterMS = hint.Milliseconds()
		secs := int64((hint + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, body)
	requestErrorsTotal.Inc()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// writeDraining answers a request that arrived after Shutdown began:
// admission is closed, the client should retry against a peer (or after
// the restart). 503 is the serving layer's own status — the taxonomy
// never produces it (see qerr.HTTPStatus).
func writeDraining(w http.ResponseWriter) {
	drainRejectsTotal.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error:        "server is draining for shutdown",
		Status:       http.StatusServiceUnavailable,
		Code:         "draining",
		RetryAfterMS: 1000,
	})
}

func writeUnauthorized(w http.ResponseWriter) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="exrquyd"`)
	writeJSON(w, http.StatusUnauthorized, errorBody{
		Error:  "missing or unknown API key",
		Status: http.StatusUnauthorized,
		Code:   "unauthorized",
	})
}

// writeBreakerOpen answers a request rejected by the client's tripped
// circuit breaker: fail fast with the cooldown remainder as the hint.
// 503 rather than 429 — the problem is the serving path for this client,
// not the client's request rate.
func writeBreakerOpen(w http.ResponseWriter, clientName string, retryAfter time.Duration) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error:        fmt.Sprintf("circuit breaker open for client %q; backing off", clientName),
		Status:       http.StatusServiceUnavailable,
		Code:         "breaker_open",
		RetryAfterMS: retryAfter.Milliseconds(),
	})
	requestErrorsTotal.Inc()
}

// queryText extracts the query from ?q= (GET) or the request body (POST),
// bounded by Config.MaxQueryBytes.
func (s *Server) queryText(r *http.Request) (string, error) {
	if r.Method == http.MethodGet {
		q := r.URL.Query().Get("q")
		if q == "" {
			return "", fmt.Errorf("missing q parameter")
		}
		if int64(len(q)) > s.cfg.MaxQueryBytes {
			return "", fmt.Errorf("query text exceeds %d bytes", s.cfg.MaxQueryBytes)
		}
		return q, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxQueryBytes+1))
	if err != nil {
		return "", fmt.Errorf("read query body: %w", err)
	}
	if int64(len(body)) > s.cfg.MaxQueryBytes {
		return "", fmt.Errorf("query text exceeds %d bytes", s.cfg.MaxQueryBytes)
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		return "", fmt.Errorf("empty query body")
	}
	return string(body), nil
}

// deadlineFor resolves the per-request deadline: ?timeout= (a Go
// duration, capped at Config.MaxTimeout) or the server default.
func (s *Server) deadlineFor(r *http.Request) (time.Duration, error) {
	spec := r.URL.Query().Get("timeout")
	if spec == "" {
		return s.cfg.Timeout, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 500ms)", spec)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// plan resolves the request's compiled query through the prepared-plan
// cache; hit reports whether compilation was skipped. A cached entry
// carries the flattened program, so a warm hit skips
// parse→normalize→compile→optimize→flatten entirely and goes straight
// to executing it.
func (s *Server) plan(query string) (q *exrquy.Query, hit bool, err error) {
	key := normalizeQuery(query)
	if q, ok := s.cache.get(key); ok {
		return q, true, nil
	}
	q, err = s.eng.Compile(query)
	if err != nil {
		return nil, false, err
	}
	s.cache.put(key, q, q.Documents())
	return q, false, nil
}

// finishQuery records the request's outcome with the client's circuit
// breaker and, when err is non-nil, writes the error response. The
// breaker's definition of failure is "the serving path broke" — watchdog
// kills and internal errors — never client mistakes (parse errors,
// quota cutoffs), which say nothing about the server's health. A
// watchdog kill surfaces as 503 "watchdog_killed" rather than the 499
// its underlying cancellation would map to: the client did nothing
// wrong and should retry (order indifference makes the retry safe).
// Reports whether a response was written.
func (s *Server) finishQuery(w http.ResponseWriter, key string, err error) bool {
	stuck := resilience.IsStuck(err)
	s.breakers.Record(key, stuck || errors.Is(err, qerr.ErrInternal))
	if err == nil {
		return false
	}
	if stuck {
		watchdogRejects.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error:        err.Error(),
			Status:       http.StatusServiceUnavailable,
			Code:         "watchdog_killed",
			Phase:        qerr.PhaseOf(err),
			RetryAfterMS: 1000,
		})
		requestErrorsTotal.Inc()
		return true
	}
	writeError(w, err)
	return true
}

// handleQuery serves GET /query?q= and POST /query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	client, key, ok := s.clientFor(r)
	if !ok {
		writeUnauthorized(w)
		return
	}
	// Resilience gates, cheapest first and both per-client: the token
	// bucket answers "is this client too fast", the breaker "is this
	// client's serving path broken". Governor admission ("is the process
	// too busy") still runs inside ExecuteContext — the layers compose.
	if allowed, retryAfter := s.limiter.Allow(key, s.rateFor(client)); !allowed {
		writeError(w, qerr.RateLimited(retryAfter, "client %q over rate limit: %w", client.Name, qerr.ErrRateLimited))
		return
	}
	if allowed, retryAfter := s.breakers.Allow(key); !allowed {
		writeBreakerOpen(w, client.Name, retryAfter)
		return
	}
	requestsTotal.Inc()
	inflightGauge.Add(1)
	start := time.Now()
	defer func() {
		inflightGauge.Add(-1)
		requestNanos.Observe(time.Since(start).Nanoseconds())
	}()

	query, err := s.queryText(r)
	if err != nil {
		writeError(w, qerr.New(qerr.ErrParse, "request", err))
		return
	}
	deadline, err := s.deadlineFor(r)
	if err != nil {
		writeError(w, qerr.New(qerr.ErrParse, "request", err))
		return
	}

	q, hit, err := s.plan(query)
	if err != nil {
		writeError(w, err)
		return
	}

	// r.Context() cancels when the client disconnects, so an abandoned
	// request stops consuming engine slots mid-flight (→ 499 internally).
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	if client.QueryBytes > 0 {
		ctx = exrquy.WithQuotaContext(ctx, client.QueryBytes)
	}
	// The watchdog wraps the governed execution: the probe's heartbeat
	// counter rides the context down to the engine's poll points (and the
	// governor's queue wait), and a query silent past the threshold is
	// cancelled with ErrStuck as the cause.
	ctx, probe := s.watchdog.Watch(ctx)
	defer probe.Close()

	cacheHdr := "miss"
	if hit {
		cacheHdr = "hit"
	}
	if r.URL.Query().Get("analyze") == "1" {
		res, text, err := q.AnalyzeContext(ctx)
		if s.finishQuery(w, key, err) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Query-Cache", cacheHdr)
		w.Header().Set("X-Query-Elapsed", res.Elapsed().String())
		io.WriteString(w, text) //nolint:errcheck
		return
	}
	res, err := q.ExecuteContext(ctx)
	if s.finishQuery(w, key, err) {
		return
	}
	xml, err := res.XML()
	if err != nil {
		writeError(w, qerr.New(qerr.ErrInternal, "serialize", err))
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("X-Query-Cache", cacheHdr)
	w.Header().Set("X-Query-Elapsed", res.Elapsed().String())
	io.WriteString(w, xml) //nolint:errcheck
}

// documentInfo is one entry of GET /documents and the PUT response.
type documentInfo struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Elements int    `json:"elements"`
	MaxDepth int    `json:"max_depth"`
}

func (s *Server) documentInfo(name string) (documentInfo, error) {
	st, err := s.eng.DocumentStats(name)
	if err != nil {
		return documentInfo{}, err
	}
	return documentInfo{Name: name, Nodes: st.Nodes, Elements: st.Elements, MaxDepth: st.MaxDepth}, nil
}

// handlePutDocument uploads or hot-reloads a document. The new fragment
// is parsed fully before the registry entry swaps, so concurrent queries
// see either the old or the new document, never a half-parsed one; the
// prepared-plan cache is invalidated after the swap.
func (s *Server) handlePutDocument(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	name := r.PathValue("name")
	if name == "" {
		writeError(w, qerr.Newf(qerr.ErrParse, "request", "empty document name"))
		return
	}
	existed := false
	for _, d := range s.eng.Documents() {
		if d == name {
			existed = true
			break
		}
	}
	// The parser's own byte guard fires first (ErrLimit → 413) with the
	// HTTP-layer cap one byte looser as the backstop.
	lim := exrquy.DefaultDocumentLimits()
	lim.MaxBytes = s.cfg.MaxDocBytes
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxDocBytes+1)
	if err := s.eng.LoadDocumentLimited(name, body, lim); err != nil {
		writeError(w, err)
		return
	}
	// Scoped invalidation: only plans that read this document are stale
	// (doc() URIs are static, so the scope is exact); the rest of the
	// cache stays warm across the reload.
	s.cache.invalidateDoc(name)
	docReloadsTotal.Inc()
	info, err := s.documentInfo(name)
	if err != nil {
		writeError(w, qerr.New(qerr.ErrInternal, "reload", err))
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// handleDeleteDocument unregisters a document; in-flight queries that
// snapshotted the registry before the delete finish against the old view.
func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	name := r.PathValue("name")
	if !s.eng.RemoveDocument(name) {
		writeJSON(w, http.StatusNotFound, errorBody{
			Error:  fmt.Sprintf("unknown document %q", name),
			Status: http.StatusNotFound,
		})
		return
	}
	s.cache.invalidateDoc(name)
	docDeletesTotal.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListDocuments(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	names := s.eng.Documents()
	out := make([]documentInfo, 0, len(names))
	for _, n := range names {
		if info, err := s.documentInfo(n); err == nil {
			out = append(out, info)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders the process-wide obs registry as "name value"
// text — engine, governor, cache and request families together.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	obs.Default.Write(w) //nolint:errcheck
}

// resilienceStats is the /debug/stats resilience section.
type resilienceStats struct {
	// WatchdogKills counts queries cancelled for heartbeat silence.
	WatchdogKills int64 `json:"watchdog_kills"`
	// Breakers maps client keys to non-closed circuit states
	// ("open"/"half-open"); empty when all circuits are closed.
	Breakers map[string]string `json:"breakers,omitempty"`
}

// statsBody is GET /debug/stats: a structured snapshot of the daemon.
type statsBody struct {
	UptimeMS   int64                `json:"uptime_ms"`
	Draining   bool                 `json:"draining"`
	Inflight   int64                `json:"inflight"`
	Documents  []documentInfo       `json:"documents"`
	Governor   exrquy.GovernorStats `json:"governor"`
	Cache      CacheStats           `json:"cache"`
	Resilience resilienceStats      `json:"resilience"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.clientFor(r); !ok {
		writeUnauthorized(w)
		return
	}
	names := s.eng.Documents()
	docs := make([]documentInfo, 0, len(names))
	for _, n := range names {
		if info, err := s.documentInfo(n); err == nil {
			docs = append(docs, info)
		}
	}
	writeJSON(w, http.StatusOK, statsBody{
		UptimeMS:  time.Since(s.started).Milliseconds(),
		Draining:  s.draining.Load(),
		Inflight:  inflightGauge.Load(),
		Documents: docs,
		Governor:  s.gov.Stats(),
		Cache:     s.cache.stats(),
		Resilience: resilienceStats{
			WatchdogKills: s.watchdog.Kills(),
			Breakers:      s.breakers.States(),
		},
	})
}

// handleHealthz answers 200 while serving, 503 once draining — the shape
// load balancers expect for connection draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}
