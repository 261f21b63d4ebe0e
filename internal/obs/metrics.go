// Package obs is the engine's observability layer: a lightweight metrics
// registry (atomic counters, gauges and power-of-two histograms — zero
// allocations on the hot path, whether or not anyone is watching), the
// per-plan-node execution record (OpStats, rolled up by origin into the
// profile or copied into a RunStats for EXPLAIN ANALYZE), and a Tracer
// span interface with a chrome://tracing-compatible JSON sink (JSONTrace).
//
// The package sits below every other engine layer (it imports only the
// standard library), so xdm, engine, vm and core can all report
// into it without cycles. Process-wide engine metrics live in the Default
// registry; the per-operator records live in the executor's frame
// (internal/vm), which writes each once per operator on every run.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the histogram bucket count: bucket i holds observations
// v with bits.Len64(v) == i, i.e. power-of-two value ranges, which is
// plenty for latency distributions and needs no configuration.
const histBuckets = 64

// Histogram counts observations in power-of-two buckets. All operations
// are atomic and allocation-free.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (negative values clamp to bucket 0).
func (h *Histogram) Observe(v int64) {
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one non-empty histogram bucket: Count observations were at
// most Le (the bucket's inclusive upper bound, a power of two minus one).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			le := int64(0) // bucket 0: v <= 0
			if i > 0 && i < 63 {
				le = int64(1)<<i - 1
			} else if i >= 63 {
				le = int64(^uint64(0) >> 1) // max int64
			}
			out = append(out, Bucket{Le: le, Count: n})
		}
	}
	return out
}

// Metric is one registry entry rendered for a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter", "gauge" or "histogram"
	Value   int64    `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry is a named collection of metrics. Lookup (get-or-create) takes
// a mutex; the returned metric handles are lock-free, so callers hold
// handles, not names, on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot renders every metric, sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Load()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Kind: "histogram", Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Write renders a plain-text snapshot, one metric per line (histograms
// report count, sum and mean).
func (r *Registry) Write(w io.Writer) error {
	for _, m := range r.Snapshot() {
		var err error
		if m.Kind == "histogram" {
			mean := int64(0)
			if m.Count > 0 {
				mean = m.Sum / m.Count
			}
			_, err = fmt.Fprintf(w, "%-40s count=%d sum=%d mean=%d\n", m.Name, m.Count, m.Sum, mean)
		} else {
			_, err = fmt.Fprintf(w, "%-40s %d\n", m.Name, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Default is the process-wide registry holding the engine metrics below.
var Default = NewRegistry()

// Engine metrics. Handles are resolved once at init, so hot-path updates
// are single atomic adds — no map lookups, no allocations.
var (
	// QueriesTotal counts completed engine executions.
	QueriesTotal = Default.Counter("engine_queries_total")
	// QueryErrorsTotal counts executions that returned an error.
	QueryErrorsTotal = Default.Counter("engine_query_errors_total")
	// CellsTotal counts table cells materialized by operator evaluations.
	CellsTotal = Default.Counter("engine_cells_materialized_total")
	// MemoHitsTotal counts memoized plan-node reuses.
	MemoHitsTotal = Default.Counter("engine_memo_hits_total")
	// QueryNanos is the query wall-clock latency distribution in ns.
	QueryNanos = Default.Histogram("engine_query_latency_ns")
)

// Governor metrics (internal/governor): admission control, queueing,
// load shedding and the shared byte ledger.
var (
	// AdmittedTotal counts queries admitted past the governor's gate.
	AdmittedTotal = Default.Counter("governor_admitted_total")
	// QueuedTotal counts queries that had to wait in the admission queue.
	QueuedTotal = Default.Counter("governor_queued_total")
	// ShedTotal counts queries rejected with ErrOverload (queue full or
	// queue deadline exceeded).
	ShedTotal = Default.Counter("governor_shed_total")
	// ActiveQueries gauges the queries currently holding an admission slot.
	ActiveQueries = Default.Gauge("governor_active_queries")
	// QueueDepth gauges the current admission-queue length.
	QueueDepth = Default.Gauge("governor_queue_depth")
	// LedgerBytes gauges the bytes currently reserved in the governor's
	// shared memory ledger.
	LedgerBytes = Default.Gauge("governor_ledger_bytes")
	// QueueWaitNanos is the distribution of time spent queued before
	// admission (admitted queries only; shed queries don't report).
	QueueWaitNanos = Default.Histogram("governor_queue_wait_ns")
)

// FaultsInjected counts faults an armed fault.Plan injected, at every
// site: HTTP requests, governor admissions, kernel panics,
// store opens, writes and query probes (zero in production).
var FaultsInjected = Default.Counter("faults_injected_total")

// Resilience metrics (internal/resilience): per-client rate limiting,
// the stuck-query watchdog and circuit breakers.
var (
	// RateAllowedTotal counts requests admitted by per-client rate limits.
	RateAllowedTotal = Default.Counter("ratelimit_allowed_total")
	// RateLimitedTotal counts requests rejected with ErrRateLimited (429).
	RateLimitedTotal = Default.Counter("ratelimit_limited_total")
	// RateClients gauges the number of per-client token buckets alive.
	RateClients = Default.Gauge("ratelimit_clients")
	// WatchdogWatchedTotal counts queries registered with the watchdog.
	WatchdogWatchedTotal = Default.Counter("watchdog_watched_total")
	// WatchdogKillsTotal counts queries cancelled for missing heartbeats.
	WatchdogKillsTotal = Default.Counter("watchdog_kills_total")
	// BreakerOpensTotal counts closed→open (and half-open→open) trips.
	BreakerOpensTotal = Default.Counter("breaker_opens_total")
	// BreakerRejectsTotal counts requests rejected by an open breaker.
	BreakerRejectsTotal = Default.Counter("breaker_rejects_total")
)

// Out-of-core store metrics (internal/store): mmap'd columnar document
// stores, their demand-paged residency, and ledger-pressure evictions.
var (
	// StoreMappedBytes gauges the bytes currently mmap'd across all open
	// stores (the corpus footprint on the address space, not in RAM).
	StoreMappedBytes = Default.Gauge("store_mapped_bytes")
	// StoreResidentBytes gauges the mapped bytes resident in physical
	// memory at the last residency sample (mincore).
	StoreResidentBytes = Default.Gauge("store_resident_bytes")
	// StorePageFaultsTotal counts pages observed newly resident between
	// residency samples — a lower bound on major+minor faults served for
	// store mappings (pages faulted and evicted between samples are
	// invisible).
	StorePageFaultsTotal = Default.Counter("store_page_faults_total")
	// StoreEvictionsTotal counts ledger-pressure evictions: the residency
	// sampler told the kernel to drop store pages (madvise DONTNEED)
	// because the byte ledger could not cover what was resident.
	StoreEvictionsTotal = Default.Counter("store_evictions_total")
	// StorePartsOpen gauges the store part files currently mapped.
	StorePartsOpen = Default.Gauge("store_parts_open")
)

// Storage fault-tolerance metrics (internal/store): replica failover,
// the background scrubber, and quarantine/re-replication events.
var (
	// StoreFailoverTotal counts part failovers: a mapped part was found
	// bad (CRC mismatch, I/O fault, failed open) and the store switched
	// to the next healthy replica — at mount time or mid-query.
	StoreFailoverTotal = Default.Counter("store_failover_total")
	// StoreSuspectParts gauges parts currently marked suspect: a fault
	// was observed on their active replica and failover has not yet
	// replaced it.
	StoreSuspectParts = Default.Gauge("store_suspect_parts")
	// StoreScrubPassesTotal counts completed scrub passes (every part of
	// a store re-verified once).
	StoreScrubPassesTotal = Default.Counter("store_scrub_passes_total")
	// StoreScrubPartsTotal counts part-file verifications performed by
	// the scrubber (active mappings and standby replica files alike).
	StoreScrubPartsTotal = Default.Counter("store_scrub_parts_total")
	// StoreScrubErrorsTotal counts scrub verifications that found a bad
	// part (CRC mismatch, truncation, unreadable file).
	StoreScrubErrorsTotal = Default.Counter("store_scrub_errors_total")
	// StoreQuarantinedParts gauges part files quarantined (renamed to
	// *.quarantine) and not yet restored by re-replication.
	StoreQuarantinedParts = Default.Gauge("store_quarantined_parts")
	// StoreRereplicatedTotal counts part files restored from a healthy
	// replica after quarantine.
	StoreRereplicatedTotal = Default.Counter("store_rereplicated_total")
)
