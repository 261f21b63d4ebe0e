// Command loadgen drives an exrquyd daemon with open-loop XQuery load
// and reports latency percentiles, achieved QPS, shed rate and the
// prepared-plan cache hit rate.
//
// Open loop means arrivals are scheduled by a clock, not by completions:
// a ticker fires at the target rate and drops each request into a
// bounded queue that -clients workers drain. When the daemon slows
// down, the queue backs up and overflows are counted instead of
// silently stretching the arrival schedule — the coordinated-omission
// mistake closed-loop generators make.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8345 -qps 50 -clients 8 -duration 10s
//
// With -provision-xmark F the generator first uploads a synthetic XMark
// instance as auction.xml via PUT /documents, so it can drive a freshly
// booted empty daemon.
//
// Query traffic goes through the resilient internal/client: -retries N
// re-issues failed queries with capped jittered backoff (honoring the
// server's Retry-After hints, bounded by -retry-budget), and -hedge
// races a speculative duplicate against slow queries after -hedge-delay
// (default: the p95 of observed latencies). Safe because query reads
// are idempotent under order indifference; the run report carries the
// retry/hedge/watchdog-kill counts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
)

func main() {
	var (
		base       = flag.String("url", "http://127.0.0.1:8345", "exrquyd base URL")
		qps        = flag.Float64("qps", 50, "target aggregate arrival rate, queries/second")
		clients    = flag.Int("clients", 8, "concurrent worker connections")
		duration   = flag.Duration("duration", 10*time.Second, "measured run length")
		queryList  = flag.String("queries", "1,2,8,9,11", "comma-separated XMark query numbers for the mix")
		key        = flag.String("key", "", "API key sent as X-API-Key")
		provision  = flag.Float64("provision-xmark", 0, "upload a synthetic XMark instance at this factor as auction.xml before the run")
		warm       = flag.Bool("warm", true, "run each mix query once before measuring (warms the plan cache)")
		retries    = flag.Int("retries", 0, "retries per query beyond the first attempt (0 = give up immediately)")
		budget     = flag.Float64("retry-budget", 0.2, "retry budget: retries allowed as a fraction of requests")
		hedge      = flag.Bool("hedge", false, "hedge slow queries with a speculative duplicate (idempotent GETs only)")
		hedgeDelay = flag.Duration("hedge-delay", 0, "fixed hedge trigger (0 = p95 of observed latencies)")
	)
	flag.Parse()
	if *qps <= 0 || *clients <= 0 {
		fatal("need -qps > 0 and -clients > 0")
	}

	mix, err := parseQueries(*queryList)
	if err != nil {
		fatal("%v", err)
	}
	baseURL := strings.TrimRight(*base, "/")
	lg := &generator{base: baseURL, key: *key,
		client: &http.Client{Timeout: 60 * time.Second},
		rc: client.New(client.Config{
			BaseURL:     baseURL,
			APIKey:      *key,
			MaxAttempts: *retries + 1,
			RetryBudget: *budget,
			Hedge:       *hedge,
			HedgeDelay:  *hedgeDelay,
		})}

	if *provision > 0 {
		var doc bytes.Buffer
		if err := xmark.WriteXML(&doc, xmark.Config{Factor: *provision}); err != nil {
			fatal("generate xmark: %v", err)
		}
		if err := lg.putDocument("auction.xml", doc.Bytes()); err != nil {
			fatal("provision auction.xml: %v", err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: provisioned XMark factor %g (%d bytes)\n", *provision, doc.Len())
	}
	if *warm {
		for _, id := range mix {
			if status, body, err := lg.query(id); err != nil {
				fatal("warm-up Q%d: %v", id, err)
			} else if status != http.StatusOK {
				fatal("warm-up Q%d: status %d: %s", id, status, firstLine(body))
			}
		}
	}

	before, err := lg.stats()
	if err != nil {
		fatal("stats: %v", err)
	}
	res := lg.run(mix, *qps, *clients, *duration)
	after, err := lg.stats()
	if err != nil {
		fatal("stats: %v", err)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	hitPct := 0.0
	if hits+misses > 0 {
		hitPct = 100 * float64(hits) / float64(hits+misses)
	}
	cst := lg.rc.Stats()
	kills := after.Resilience.WatchdogKills - before.Resilience.WatchdogKills

	res.report(os.Stdout, *qps, *clients, hitPct, cst, kills)
	if res.errors > 0 {
		os.Exit(1)
	}
}

// generator holds the HTTP plumbing shared by all workers: a raw
// http.Client for document uploads and the resilient internal/client
// (retries, budget, hedging) for query traffic.
type generator struct {
	base   string
	key    string
	client *http.Client
	rc     *client.Client
}

func (g *generator) do(req *http.Request) (int, []byte, error) {
	if g.key != "" {
		req.Header.Set("X-API-Key", g.key)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (g *generator) query(id int) (int, []byte, error) {
	resp, err := g.rc.Query(context.Background(), xmarkq.Get(id).Text)
	if err != nil {
		return 0, nil, err
	}
	return resp.Status, resp.Body, nil
}

func (g *generator) putDocument(name string, doc []byte) error {
	req, err := http.NewRequest(http.MethodPut, g.base+"/documents/"+name, bytes.NewReader(doc))
	if err != nil {
		return err
	}
	status, body, err := g.do(req)
	if err != nil {
		return err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	return nil
}

// daemonStats is the subset of GET /debug/stats loadgen reads.
type daemonStats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Resilience struct {
		WatchdogKills int64 `json:"watchdog_kills"`
	} `json:"resilience"`
}

func (g *generator) stats() (daemonStats, error) {
	var st daemonStats
	req, err := http.NewRequest(http.MethodGet, g.base+"/debug/stats", nil)
	if err != nil {
		return st, err
	}
	status, body, err := g.do(req)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	return st, json.Unmarshal(body, &st)
}

// sample is one completed request.
type sample struct {
	query   int
	status  int
	elapsed time.Duration
}

// result aggregates a run.
type result struct {
	samples  []sample
	overflow int64 // arrivals dropped because the client-side queue was full
	errors   int64 // transport errors and non-200/429 statuses
	wall     time.Duration
}

// run executes the open loop: a ticker emits arrivals at the target rate
// into a bounded queue; workers drain it. The queue bound (4 per worker)
// keeps client-side waiting visible as overflow instead of unbounded
// latency inflation.
func (g *generator) run(mix []int, qps float64, clients int, duration time.Duration) *result {
	res := &result{}
	arrivals := make(chan int, clients*4)
	results := make(chan sample, clients)
	errs := make(chan error, 1)

	var workers sync.WaitGroup
	for w := 0; w < clients; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for id := range arrivals {
				start := time.Now()
				status, _, err := g.query(id)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					results <- sample{query: id, status: 0}
					continue
				}
				results <- sample{query: id, status: status, elapsed: time.Since(start)}
			}
		}()
	}
	// The collector drains results for the whole run so workers never
	// block on reporting — blocked workers would throttle arrivals and
	// turn the open loop into a closed one.
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for s := range results {
			res.samples = append(res.samples, s)
		}
	}()

	interval := time.Duration(float64(time.Second) / qps)
	ticker := time.NewTicker(interval)
	start := time.Now()
	deadline := start.Add(duration)
	next := 0
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		id := mix[next%len(mix)]
		next++
		select {
		case arrivals <- id:
		default:
			res.overflow++ // open loop: the arrival happened; the client couldn't carry it
		}
	}
	ticker.Stop()
	close(arrivals)
	workers.Wait()
	close(results)
	<-collected

	res.wall = time.Since(start)
	for _, s := range res.samples {
		if s.status != http.StatusOK && s.status != http.StatusTooManyRequests {
			res.errors++
		}
	}
	select {
	case err := <-errs:
		fmt.Fprintf(os.Stderr, "loadgen: first transport error: %v\n", err)
	default:
	}
	return res
}

// perQuery groups the run's samples by XMark query.
type perQuery struct {
	id        int
	ok, shed  int64
	latencies []time.Duration
}

func (r *result) byQuery() []*perQuery {
	m := map[int]*perQuery{}
	for _, s := range r.samples {
		q := m[s.query]
		if q == nil {
			q = &perQuery{id: s.query}
			m[s.query] = q
		}
		switch s.status {
		case http.StatusOK:
			q.ok++
			q.latencies = append(q.latencies, s.elapsed)
		case http.StatusTooManyRequests:
			q.shed++
		}
	}
	out := make([]*perQuery, 0, len(m))
	for _, q := range m {
		sort.Slice(q.latencies, func(i, j int) bool { return q.latencies[i] < q.latencies[j] })
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// pct picks the p-th percentile from sorted latencies (nearest rank).
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (r *result) report(w io.Writer, qps float64, clients int, hitPct float64, cst client.Stats, kills int64) {
	total := int64(len(r.samples))
	achieved := float64(total) / r.wall.Seconds()
	fmt.Fprintf(w, "open loop: target %.0f qps, %d clients, %s wall\n", qps, clients, r.wall.Round(time.Millisecond))
	fmt.Fprintf(w, "completed %d (%.1f qps achieved), %d queue overflows, %d errors, cache hit rate %.1f%%\n",
		total, achieved, r.overflow, r.errors, hitPct)
	fmt.Fprintf(w, "resilience: %d retries (%d budget-denied), %d hedges (%d wins), %d watchdog kills\n",
		cst.Retries, cst.BudgetDenied, cst.Hedges, cst.HedgeWins, kills)
	fmt.Fprintf(w, "%-6s %8s %8s %12s %12s %12s\n", "query", "ok", "shed", "p50", "p95", "p99")
	for _, q := range r.byQuery() {
		fmt.Fprintf(w, "Q%-5d %8d %8d %12s %12s %12s\n", q.id, q.ok, q.shed,
			pct(q.latencies, 50).Round(time.Microsecond),
			pct(q.latencies, 95).Round(time.Microsecond),
			pct(q.latencies, 99).Round(time.Microsecond))
	}
}

func parseQueries(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad query number %q", part)
		}
		if id < 1 || id > 20 {
			return nil, fmt.Errorf("query number %d out of range 1..20", id)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty query mix")
	}
	return out, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
