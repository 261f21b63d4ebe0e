// Package server is exrquyd's serving layer: a long-running HTTP daemon
// over the eXrQuy engine for concurrent multi-client XQuery traffic.
//
// The layers beneath were built for exactly this front door and the
// server adds no query machinery of its own — it wires them together:
//
//   - Query endpoints (POST /query, GET /query?q=) run QueryContext with
//     per-request deadlines; the qerr taxonomy maps to HTTP statuses
//     through qerr.HTTPStatus (parse/compile → 400, cutoff → 413/408,
//     canceled → 499, overload → 429 with Retry-After, internal → 500).
//   - Document management (PUT/DELETE /documents/{name}) hot-swaps
//     entries in the Engine's RWMutex'd registry while queries run; a
//     query always sees the point-in-time registry snapshot taken when
//     its execution started.
//   - A prepared-query LRU cache keyed on normalized query text reuses
//     the expensive parse→normalize→compile→optimize front half across
//     identical queries (safe because prepared plans are document-
//     independent until execution; see DESIGN.md).
//   - Per-client API keys map onto governor accounts: every admitted
//     query draws a ledger account with its client's quota from the one
//     shared process ledger.
//   - /metrics and /debug/stats expose the obs registry, governor,
//     cache and document state; ?analyze=1 returns EXPLAIN ANALYZE.
//   - Graceful shutdown stops admission (503 + Retry-After), drains
//     in-flight queries through the governor, and bounds drain time.
package server

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	exrquy "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Request-level metrics, alongside the engine/governor/cache families in
// the process-wide registry.
var (
	requestsTotal      = obs.Default.Counter("server_requests_total")
	requestErrorsTotal = obs.Default.Counter("server_request_errors_total")
	requestNanos       = obs.Default.Histogram("server_request_latency_ns")
	inflightGauge      = obs.Default.Gauge("server_inflight_requests")
	docReloadsTotal    = obs.Default.Counter("server_document_reloads_total")
	docDeletesTotal    = obs.Default.Counter("server_document_deletes_total")
	drainRejectsTotal  = obs.Default.Counter("server_drain_rejects_total")
	watchdogRejects    = obs.Default.Counter("server_watchdog_rejects_total")
)

// Config assembles a Server. The zero value is usable: an ungoverned-
// defaults governor (2×GOMAXPROCS slots), open access, a 256-entry plan
// cache, 30 s default query deadline, 64 MiB uploads, 10 s drain bound.
type Config struct {
	// Governor configures the admission/ledger governor every query runs
	// through. The zero value takes the governor package defaults.
	Governor exrquy.GovernorConfig
	// StoreBudget gives attached on-disk stores a dedicated paging
	// ledger of this many bytes (exrquy.WithStoreBudget). 0 means store
	// residency is charged to the governor's shared ledger instead.
	StoreBudget int64
	// Timeout is the default per-request query deadline; 0 means 30 s.
	Timeout time.Duration
	// MaxTimeout caps the ?timeout= request parameter; 0 means 5 m.
	MaxTimeout time.Duration
	// MaxQueryBytes bounds the query text read from a request body;
	// 0 means 1 MiB.
	MaxQueryBytes int64
	// MaxDocBytes bounds one document upload (PUT /documents/{name});
	// 0 means 64 MiB. The limit is enforced both at the HTTP layer and as
	// the parser's xmltree.ParseOptions byte guard.
	MaxDocBytes int64
	// CacheSize is the prepared-plan LRU capacity; 0 means 256.
	CacheSize int
	// Clients maps API keys to principals. Empty means open access.
	Clients map[string]Client
	// DrainTimeout bounds graceful shutdown: once it passes, still-running
	// queries are cut off by closing their connections. 0 means 10 s.
	DrainTimeout time.Duration

	// RateQPS is the default per-client sustained rate limit in queries
	// per second (token-bucket refill rate); 0 disables rate limiting for
	// clients without their own Client.RateQPS. Rate limiting composes
	// with — never replaces — governor admission: the bucket answers "is
	// this client too fast", the governor answers "is the process too
	// busy", and the two rejections stay distinguishable
	// (ErrRateLimited vs ErrOverload).
	RateQPS float64
	// RateBurst is the default token-bucket capacity (instantaneous
	// burst); 0 means ceil(RateQPS), minimum 1.
	RateBurst int
	// WatchdogTimeout is the stuck-query heartbeat threshold: a query
	// silent (no engine poll point reached) for this long is cancelled
	// with resilience.ErrStuck, within at most twice the threshold.
	// 0 disables the watchdog.
	WatchdogTimeout time.Duration
	// BreakerFailures is the per-client circuit-breaker trip threshold
	// (consecutive watchdog kills or internal errors); 0 disables
	// breakers.
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker rejects before
	// admitting a half-open probe; 0 means 5 s.
	BreakerCooldown time.Duration

	// ScrubInterval enables background scrubbing on every attached
	// store: part-file checksums are re-verified at this cadence,
	// corrupt files quarantined and restored from healthy replicas
	// (exrquy.WithStoreScrub). 0 disables the loop; POST /stores/scrub
	// still scrubs on demand.
	ScrubInterval time.Duration
	// ScrubBytesPerSec paces scrub verification reads (0 = unpaced).
	ScrubBytesPerSec int64
}

// Server is the daemon: one Engine, one Governor, one plan cache, one
// HTTP front. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	eng   *exrquy.Engine
	gov   *exrquy.Governor
	cache *planCache
	mux   *http.ServeMux
	httpS *http.Server

	// Resilience layers (internal/resilience), checked in this order in
	// front of every query: per-client token buckets, per-client circuit
	// breakers, then the per-query stuck-detection watchdog around the
	// execution itself. Watchdog and breakers are nil when disabled.
	limiter  *resilience.Limiter
	watchdog *resilience.Watchdog
	breakers *resilience.BreakerSet

	draining atomic.Bool
	listener net.Listener
	started  time.Time
}

// New builds a Server from cfg (zero fields take the documented
// defaults). Documents can be preloaded through Engine() before serving.
func New(cfg Config) *Server {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxQueryBytes <= 0 {
		cfg.MaxQueryBytes = 1 << 20
	}
	if cfg.MaxDocBytes <= 0 {
		cfg.MaxDocBytes = 64 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	gov := exrquy.NewGovernor(cfg.Governor)
	opts := []exrquy.Option{exrquy.WithGovernor(gov)}
	if cfg.StoreBudget > 0 {
		opts = append(opts, exrquy.WithStoreBudget(cfg.StoreBudget))
	}
	if cfg.ScrubInterval > 0 {
		opts = append(opts, exrquy.WithStoreScrub(exrquy.StoreScrubConfig{
			Interval:    cfg.ScrubInterval,
			BytesPerSec: cfg.ScrubBytesPerSec,
		}))
	}
	s := &Server{
		cfg:      cfg,
		eng:      exrquy.New(opts...),
		gov:      gov,
		cache:    newPlanCache(cfg.CacheSize),
		mux:      http.NewServeMux(),
		limiter:  resilience.NewLimiter(),
		watchdog: resilience.NewWatchdog(cfg.WatchdogTimeout),
		breakers: resilience.NewBreakerSet(resilience.BreakerConfig{
			Failures: cfg.BreakerFailures,
			Cooldown: cfg.BreakerCooldown,
		}),
		started: time.Now(),
	}
	s.routes()
	s.httpS = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Engine exposes the underlying engine, e.g. for preloading documents
// before the listener opens (exrquyd's file arguments and -xmark flag).
func (s *Server) Engine() *exrquy.Engine { return s.eng }

// Governor exposes the server's governor (tests and stats).
func (s *Server) Governor() *exrquy.Governor { return s.gov }

// Handler returns the HTTP handler (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr (e.g. "127.0.0.1:0" for an ephemeral port) without
// serving yet, so the chosen address is known before requests arrive.
func (s *Server) Listen(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.listener = l
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Serve serves on the Listen'ed address until Shutdown; like
// http.Server.Serve it returns http.ErrServerClosed on a clean shutdown.
func (s *Server) Serve() error {
	return s.httpS.Serve(s.listener)
}

// Shutdown gracefully stops the server: admission closes first (new
// queries get 503 with a Retry-After), then in-flight queries drain
// through the governor, bounded by Config.DrainTimeout (and by ctx);
// whatever still runs when the bound passes is cut off hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	err := s.httpS.Shutdown(dctx)
	if err != nil {
		// Drain bound exceeded: close remaining connections now.
		closeErr := s.httpS.Close()
		if closeErr != nil && err == nil {
			err = closeErr
		}
	}
	return err
}

// Draining reports whether Shutdown has begun (admission is closed).
func (s *Server) Draining() bool { return s.draining.Load() }
