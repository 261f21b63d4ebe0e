// Command exrquyd is the eXrQuy network query service: a long-running
// HTTP daemon serving concurrent XQuery traffic over the engine, with
// governor-backed admission control, a prepared-query plan cache,
// per-client API keys and graceful shutdown, plus a resilience layer —
// per-client rate limits (-rate-qps), a stuck-query watchdog
// (-watchdog), per-client circuit breakers (-breaker-failures) and a
// deterministic fault-injection hook for chaos drills (-faults). See
// README "Serving" and "Resilience".
//
// Usage:
//
//	exrquyd [flags] [doc1.xml doc2.xml ...]
//
// Documents given as arguments are preloaded under their base names;
// -xmark generates a synthetic XMark instance as auction.xml. More
// documents can be uploaded (and hot-reloaded) at runtime with
// PUT /documents/{name}.
//
// Endpoints:
//
//	GET  /query?q=...        run a query (&analyze=1 for EXPLAIN ANALYZE,
//	                         &timeout=500ms for a per-request deadline)
//	POST /query              query text in the body
//	PUT  /documents/{name}   upload or hot-reload a document
//	DELETE /documents/{name} unregister a document
//	GET  /documents          list registered documents
//	POST /stores             attach an on-disk columnar store ({"dirs":[...]})
//	GET  /stores             list attached stores with paging residency
//	DELETE /stores?dir=D     detach the store mounted from D
//	POST /stores/scrub       re-verify all mounted part checksums now
//	                         (quarantine + re-replicate corrupt copies)
//	GET  /metrics            process-wide engine/governor/server metrics
//	GET  /debug/stats        structured daemon snapshot (JSON)
//	GET  /healthz            200 while serving, 503 while draining
//
// SIGINT/SIGTERM begin a graceful shutdown: admission closes (new
// queries answer 503 + Retry-After), in-flight queries drain through the
// governor, and the drain is bounded by -drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	exrquy "repro"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8345", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts booting on :0)")
		xmarkF    = flag.Float64("xmark", 0, "preload a synthetic XMark instance at this factor as auction.xml")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-request query deadline")
		maxTime   = flag.Duration("max-timeout", 5*time.Minute, "upper bound for the ?timeout= request parameter")
		maxDoc    = flag.Int64("max-doc-bytes", 64<<20, "upload size limit for PUT /documents (bytes)")
		cacheSize = flag.Int("cache", 256, "prepared-query plan cache capacity (entries)")
		parallelN = flag.Int("parallel", 0, "morsel-parallel execution with this many workers (0 = serial, -1 = GOMAXPROCS)")
		govSlots  = flag.Int("gov-slots", 0, "admission slots (0 = 2x GOMAXPROCS)")
		govQueue  = flag.Int("gov-queue", 0, "admission queue depth (0 = 8x slots)")
		govWait   = flag.Duration("gov-wait", 0, "max time a query may wait queued before shedding (0 = unbounded)")
		govBytes  = flag.Int64("gov-bytes", 0, "shared memory ledger for all queries, bytes (0 = unlimited)")
		govQuery  = flag.Int64("gov-query-bytes", 0, "default per-query ledger quota, bytes (0 = bounded only by -gov-bytes)")
		apiKeys   = flag.String("api-keys", "", "comma-separated key=name[:quotaBytes[:qps[:burst]]] API keys (empty = open access)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain bound")
		rateQPS   = flag.Float64("rate-qps", 0, "default per-client sustained rate limit, queries/second (0 = off)")
		rateBurst = flag.Int("rate-burst", 0, "default per-client token-bucket burst (0 = ceil of -rate-qps)")
		watchdog  = flag.Duration("watchdog", 0, "stuck-query heartbeat threshold; silent queries are cancelled within 2x this (0 = off)")
		brkFails  = flag.Int("breaker-failures", 0, "per-client circuit-breaker trip threshold, consecutive serving failures (0 = off)")
		brkCool   = flag.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = 5s)")
		faults    = flag.String("faults", "", "TESTING ONLY: arm deterministic fault injection, e.g. seed=7,err500=17,reset=23,truncate=29:64,latency=13:3ms,shed=5,eio=11,torn=23")
		scrubIvl  = flag.Duration("scrub-interval", 0, "background store scrub cadence: re-verify part checksums, quarantine corrupt replicas, restore from healthy copies (0 = off)")
		scrubBPS  = flag.Int64("scrub-bps", 0, "scrub read-rate pacing, bytes/second (0 = unpaced)")
	)
	var storeDirs multiFlag
	flag.Var(&storeDirs, "store", "mount an on-disk columnar store directory at boot (repeatable; comma-join directories holding shards of one corpus)")
	storeBytes := flag.Int64("store-bytes", 0, "dedicated paging budget for mounted stores, bytes (0 = charge the governor's shared ledger)")
	flag.Parse()

	clients, err := server.ParseAPIKeys(*apiKeys)
	if err != nil {
		fatal("%v", err)
	}
	plan, err := fault.Parse(*faults)
	if err != nil {
		fatal("%v", err)
	}
	if plan != nil {
		fault.Arm(plan)
		fmt.Fprintf(os.Stderr, "exrquyd: WARNING: fault injection armed (-faults %q) — chaos drills only\n", *faults)
	}
	s := server.New(server.Config{
		Governor: exrquy.GovernorConfig{
			MaxConcurrent: *govSlots,
			MaxQueue:      *govQueue,
			QueueTimeout:  *govWait,
			MaxBytes:      *govBytes,
			QueryBytes:    *govQuery,
		},
		Parallelism:      *parallelN,
		StoreBudget:      *storeBytes,
		Timeout:          *timeout,
		MaxTimeout:       *maxTime,
		MaxDocBytes:      *maxDoc,
		CacheSize:        *cacheSize,
		Clients:          clients,
		DrainTimeout:     *drain,
		RateQPS:          *rateQPS,
		RateBurst:        *rateBurst,
		WatchdogTimeout:  *watchdog,
		BreakerFailures:  *brkFails,
		BreakerCooldown:  *brkCool,
		ScrubInterval:    *scrubIvl,
		ScrubBytesPerSec: *scrubBPS,
	})

	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal("open %s: %v", path, err)
		}
		err = s.Engine().LoadDocument(filepath.Base(path), f)
		f.Close()
		if err != nil {
			fatal("load %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "exrquyd: loaded %s\n", filepath.Base(path))
	}
	if *xmarkF > 0 {
		s.Engine().LoadXMark("auction.xml", *xmarkF)
		fmt.Fprintf(os.Stderr, "exrquyd: generated XMark factor %g as auction.xml\n", *xmarkF)
	}
	for _, spec := range storeDirs {
		uris, err := s.Engine().AttachStore(strings.Split(spec, ",")...)
		if err != nil {
			fatal("attach store %s: %v", spec, err)
		}
		fmt.Fprintf(os.Stderr, "exrquyd: mounted store %s (%s)\n", spec, strings.Join(uris, ", "))
	}

	if err := s.Listen(*addr); err != nil {
		fatal("listen %s: %v", *addr, err)
	}
	fmt.Printf("exrquyd: listening on http://%s\n", s.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(s.Addr()+"\n"), 0o644); err != nil {
			fatal("addr-file: %v", err)
		}
	}

	// Serve until a termination signal, then drain gracefully.
	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal("serve: %v", err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "exrquyd: %s received, draining (bound %s)\n", sig, *drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fatal("shutdown: %v", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		fatal("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "exrquyd: drained, bye")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "exrquyd: "+format+"\n", args...)
	os.Exit(1)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
