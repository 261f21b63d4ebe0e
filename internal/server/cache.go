package server

import (
	"container/list"
	"strings"
	"sync"

	exrquy "repro"
	"repro/internal/obs"
)

// Prepared-plan cache metrics (process-wide, in the Default registry like
// the engine and governor metrics, so /metrics reports them for free).
var (
	cacheHitsTotal   = obs.Default.Counter("server_plan_cache_hits_total")
	cacheMissesTotal = obs.Default.Counter("server_plan_cache_misses_total")
	cacheEvictsTotal = obs.Default.Counter("server_plan_cache_evictions_total")
	cacheInvalTotal  = obs.Default.Counter("server_plan_cache_invalidations_total")
	cacheSizeGauge   = obs.Default.Gauge("server_plan_cache_entries")
	// cacheScopedInvalTotal counts document-scoped invalidations, and
	// cacheScopedDropTotal the entries they actually dropped — the gap
	// between the two and a full flush is the win of scoping.
	cacheScopedInvalTotal = obs.Default.Counter("server_plan_cache_scoped_invalidations_total")
	cacheScopedDropTotal  = obs.Default.Counter("server_plan_cache_scoped_dropped_total")
)

// planCache is an LRU of compiled queries keyed on normalized query text
// (plus the server's engine-config fingerprint, prepended by the caller).
// The expensive part of serving a repeated query — parse → normalize →
// loop-lifting compile → optimize, the spine/join analysis of the paper —
// is reusable across requests because prepared plans are document-
// independent until execution binds the registry snapshot (see DESIGN.md);
// the cache turns the daemon's steady state into pure execution.
type planCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses, evictions, invalidations int64
	scopedInvalidations, scopedDropped     int64
}

type cacheEntry struct {
	key string
	q   *exrquy.Query
	// docs is the exact fn:doc() URI set the plan reads
	// (exrquy.Query.Documents) — the scope of invalidateDoc.
	docs []string
}

// CacheStats is the cache's /debug/stats snapshot.
type CacheStats struct {
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// ScopedInvalidations counts invalidateDoc calls; ScopedDropped the
	// entries those calls removed (the rest of the cache survived).
	ScopedInvalidations int64 `json:"scoped_invalidations"`
	ScopedDropped       int64 `json:"scoped_dropped"`
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &planCache{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached plan for key, refreshing its recency.
func (c *planCache) get(key string) (*exrquy.Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		cacheMissesTotal.Inc()
		return nil, false
	}
	c.lru.MoveToFront(e)
	c.hits++
	cacheHitsTotal.Inc()
	return e.Value.(*cacheEntry).q, true
}

// put inserts (or refreshes) a compiled plan with the document URIs it
// reads, evicting the least recently used entry past capacity. Concurrent
// misses may compile the same query twice; last writer wins and both
// plans are valid, so no singleflight.
func (c *planCache) put(key string, q *exrquy.Query, docs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		ent := e.Value.(*cacheEntry)
		ent.q, ent.docs = q, docs
		c.lru.MoveToFront(e)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, q: q, docs: docs})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
		cacheEvictsTotal.Inc()
	}
	cacheSizeGauge.Set(int64(c.lru.Len()))
}

// invalidateDoc drops exactly the entries whose plans read document name.
// Prepared plans are document-independent until execution binds the
// registry snapshot (DESIGN "Plan caching"), and the compiler only
// accepts string-literal doc() URIs, so an entry's doc set is exact and
// static: a reload of "a.xml" cannot affect a cached plan that never
// mentions it. Plans over other documents — and document-free plans —
// survive, keeping a busy multi-tenant cache warm across hot reloads.
// Returns the number of entries dropped.
func (c *planCache) invalidateDoc(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	var next *list.Element
	for e := c.lru.Front(); e != nil; e = next {
		next = e.Next()
		ent := e.Value.(*cacheEntry)
		for _, d := range ent.docs {
			if d == name {
				c.lru.Remove(e)
				delete(c.entries, ent.key)
				dropped++
				break
			}
		}
	}
	c.invalidations++
	cacheInvalTotal.Inc()
	cacheScopedInvalTotal.Inc()
	cacheScopedDropTotal.Add(int64(dropped))
	c.scopedInvalidations++
	c.scopedDropped += int64(dropped)
	cacheSizeGauge.Set(int64(c.lru.Len()))
	return dropped
}

// stats snapshots the cache.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:             c.lru.Len(),
		Capacity:            c.cap,
		Hits:                c.hits,
		Misses:              c.misses,
		Evictions:           c.evictions,
		Invalidations:       c.invalidations,
		ScopedInvalidations: c.scopedInvalidations,
		ScopedDropped:       c.scopedDropped,
	}
}

// normalizeQuery canonicalizes query text for cache keying: XQuery
// comments ((: ... :), nesting respected) are dropped and whitespace runs
// outside string literals collapse to one space, so reformatting a query
// cannot miss the cache. String literals are preserved byte for byte
// (whitespace inside "..." or '...' is data, and XQuery's doubled-quote
// escape "" / ” stays inside the literal), so two queries with the same
// normalization are the same query.
func normalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	const (
		code = iota
		squote
		dquote
	)
	state := code
	depth := 0 // comment nesting; > 0 means inside (: ... :)
	pendingSpace := false
	emit := func(ch byte) {
		if pendingSpace && b.Len() > 0 {
			b.WriteByte(' ')
		}
		pendingSpace = false
		b.WriteByte(ch)
	}
	for i := 0; i < len(src); i++ {
		ch := src[i]
		if depth > 0 {
			switch {
			case ch == '(' && i+1 < len(src) && src[i+1] == ':':
				depth++
				i++
			case ch == ':' && i+1 < len(src) && src[i+1] == ')':
				depth--
				i++
				if depth == 0 {
					// A comment separates tokens the way whitespace does.
					pendingSpace = true
				}
			}
			continue
		}
		switch state {
		case code:
			switch {
			case ch == '(' && i+1 < len(src) && src[i+1] == ':':
				depth = 1
				i++
			case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
				pendingSpace = true
			case ch == '"':
				emit(ch)
				state = dquote
			case ch == '\'':
				emit(ch)
				state = squote
			default:
				emit(ch)
			}
		case dquote:
			b.WriteByte(ch)
			if ch == '"' {
				if i+1 < len(src) && src[i+1] == '"' {
					b.WriteByte('"')
					i++
				} else {
					state = code
				}
			}
		case squote:
			b.WriteByte(ch)
			if ch == '\'' {
				if i+1 < len(src) && src[i+1] == '\'' {
					b.WriteByte('\'')
					i++
				} else {
					state = code
				}
			}
		}
	}
	return b.String()
}
