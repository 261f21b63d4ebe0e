// Package exrquy is a from-scratch Go reproduction of
//
//	Grust, Rittinger, Teubner: "eXrQuy: Order Indifference in XQuery",
//	ICDE 2007
//
// — a relational XQuery processor in the style of Pathfinder/MonetDB that
// exploits *order indifference*: XQuery contexts in which sequence or
// iteration order is immaterial (unordered { }, fn:unordered(),
// aggregates, quantifiers, general comparisons, EBV contexts, order by)
// compile to plans that replace the blocking row-numbering sorts (ρ, the
// paper's %) with free arbitrary numbering (#), after which column
// dependency analysis erases the dead order bookkeeping entirely.
//
// Quick start:
//
//	eng := exrquy.New()
//	_ = eng.LoadDocumentString("t.xml", "<a><b><c/><d/></b><c/></a>")
//	res, _ := eng.Query(`unordered { doc("t.xml")/a//(c|d) }`)
//	xml, _ := res.XML()
//
// The Engine compiles queries through the full pipeline
// (parse → normalize → loop-lifting compile → optimize → columnar
// execution); a reference tree-walking interpreter with strict ordered
// semantics is available via Reference for differential testing and as
// the conventional-processor baseline.
package exrquy

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/governor"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Error taxonomy. Every error returned by the Engine/Query API is
// classified under one of these sentinels; match with errors.Is, and use
// errors.As with *QueryError to read the pipeline phase, source position,
// or plan dump:
//
//	_, err := eng.Query(q)
//	if errors.Is(err, exrquy.ErrTimeout) { ... }
//	var qe *exrquy.QueryError
//	if errors.As(err, &qe) { log.Printf("phase %s: %v", qe.Phase, err) }
var (
	// ErrParse marks static syntax errors in queries or documents; the
	// QueryError carries a 1-based line/column position.
	ErrParse = qerr.ErrParse
	// ErrCompile marks static errors past parsing (unbound variables,
	// unsupported constructs, recursive functions).
	ErrCompile = qerr.ErrCompile
	// ErrCutoff groups both cutoff classes below, mirroring the paper's
	// "did not finish" methodology (30 s timeout, Figure 12 gaps).
	ErrCutoff = qerr.ErrCutoff
	// ErrTimeout marks wall-clock cutoffs (WithTimeout or a context
	// deadline); wraps ErrCutoff.
	ErrTimeout = qerr.ErrTimeout
	// ErrMemoryLimit marks cell-budget cutoffs (WithMemoryLimit); wraps
	// ErrCutoff.
	ErrMemoryLimit = qerr.ErrMemoryLimit
	// ErrCanceled marks cooperative context cancellation; the error also
	// wraps context.Canceled.
	ErrCanceled = qerr.ErrCanceled
	// ErrInternal marks recovered engine panics: the query failed, the
	// process survived, and the QueryError carries the phase, plan dump
	// and stack for diagnosis.
	ErrInternal = qerr.ErrInternal
	// ErrLimit marks tripped input guards (document size, nesting depth,
	// node count, query nesting); wraps ErrParse.
	ErrLimit = qerr.ErrLimit
	// ErrOverload marks load shedding by a resource governor: the query
	// was rejected before execution because the admission queue was full
	// or its queue deadline passed. Overload errors are retryable and may
	// carry a retry hint (RetryAfterOf).
	ErrOverload = qerr.ErrOverload
	// ErrRateLimited marks rejection by a per-client rate limit (the
	// serving layer's token buckets): this client is over its own budget,
	// independent of overall load. Distinct from ErrOverload by design —
	// both answer HTTP 429, but errors.Is tells them apart. Retryable;
	// RetryAfterOf carries the bucket's refill time.
	ErrRateLimited = qerr.ErrRateLimited
	// ErrCorrupt marks an on-disk document store that failed structural
	// validation when attached (truncated part file, bad magic, format
	// version skew, checksum mismatch, incomplete shard coverage). Not
	// retryable — the remedy is rebuilding the store.
	ErrCorrupt = qerr.ErrCorrupt
)

// IsRetryable reports whether err is transient — overload, rate
// limiting, timeout or cancellation — so the same query may succeed if
// simply retried (after the RetryAfterOf hint, when one is carried).
func IsRetryable(err error) bool { return qerr.IsRetryable(err) }

// RetryAfterOf extracts the retry hint from an overload error; ok is
// false when err carries none.
func RetryAfterOf(err error) (time.Duration, bool) { return qerr.RetryAfterOf(err) }

// QueryError is the structured error type behind the sentinels above.
type QueryError = qerr.Error

// Ordering selects the XQuery ordering mode applied to a query.
type Ordering int

// Ordering modes. OrderingFromProlog honours the query's own
// "declare ordering" (defaulting to ordered); the other two override it,
// which is how the benchmarks inject ordering mode unordered without
// editing query text.
const (
	OrderingFromProlog Ordering = iota
	Ordered
	Unordered
)

// Optimizations toggles the individual §4.1/§7 plan rewrites; the zero
// value disables all of them.
type Optimizations struct {
	ColumnAnalysis   bool // column dependency analysis + dead-operator pruning (§4.1)
	RownumRelax      bool // ρ → # via constant/key property inference (§7)
	StepMerge        bool // descendant-or-self::node()/child::nt → descendant::nt
	DisjointDistinct bool // drop duplicate elimination over disjoint step unions
}

// options is what the Option functions set: the pipeline configuration
// every query of the Engine runs under, plus the Engine's store settings.
type options struct {
	cfg         core.Config
	storeBudget int64
	scrub       StoreScrubConfig
}

// Option configures an Engine.
type Option func(*options)

// WithOrderIndifference toggles the order-indifference machinery as a
// whole (normalization rules, compiler rules FN:UNORDERED/LOC#/BIND#, and
// the optimizer). Disabled, the engine behaves like the order-ignorant
// baseline of the paper's §5 — fn:unordered() becomes the identity. The
// default is enabled.
func WithOrderIndifference(on bool) Option {
	return func(o *options) { o.cfg.Indifference = on }
}

// WithOrdering overrides the ordering mode for every query.
func WithOrdering(mode Ordering) Option {
	return func(o *options) {
		o.cfg.ForceOrdering = nil
		switch mode {
		case Ordered:
			m := xquery.Ordered
			o.cfg.ForceOrdering = &m
		case Unordered:
			m := xquery.Unordered
			o.cfg.ForceOrdering = &m
		}
	}
}

// WithOptimizations selects individual plan rewrites (for ablations).
func WithOptimizations(opts Optimizations) Option {
	return func(o *options) { o.cfg.Opt = opt.Options(opts) }
}

// WithTimeout bounds query execution (the paper's experiments used 30 s).
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.cfg.Timeout = d }
}

// WithMemoryLimit bounds the number of intermediate table cells one
// execution may materialize (0 = unlimited); exceeding it aborts with a
// cutoff error.
func WithMemoryLimit(cells int64) Option {
	return func(o *options) { o.cfg.MaxCells = cells }
}

// WithParallelism evaluates order-dead plan regions morsel-wise: operators
// whose row order is provably unobservable (no live ρ, no
// order-sensitive aggregate — the same analysis that licenses # over ρ)
// are partitioned and evaluated across a pool of n workers; everything
// else runs its serial kernel. n == 0 picks runtime.GOMAXPROCS(0);
// n == 1 keeps every operator serial. Results are identical to serial
// execution. Off by default — the paper's engine is single-threaded, and
// the reproduction's measurements should be too unless asked.
func WithParallelism(n int) Option {
	return func(o *options) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		o.cfg.Parallelism = n
	}
}

// WithCompiled says when a query's optimized plan is flattened into the
// executor's program: true (the default) flattens once at Compile — what
// a cached Query reuses across executions — and false flattens at each
// Run. Results are byte-identical either way.
func WithCompiled(on bool) Option {
	return func(o *options) { o.cfg.Compiled = on }
}

// Resource-governance re-exports. The governor lives in
// internal/governor; these aliases expose it without importing internal
// packages.
type (
	// Governor is a process-wide resource governor: admission control
	// with a bounded FIFO wait queue, load shedding (ErrOverload), a
	// shared memory ledger all admitted queries draw from, and graceful
	// degradation (parallel plans forced serial under pressure — safe
	// because only order-indifferent plan regions ever run parallel, so
	// serial and parallel execution produce identical results). Share one
	// Governor across every Engine in the process via WithGovernor.
	Governor = governor.Governor
	// GovernorConfig configures a Governor (see NewGovernor).
	GovernorConfig = governor.Config
	// GovernorStats is a point-in-time snapshot of a Governor's gauges
	// and counters.
	GovernorStats = governor.Stats
)

// NewGovernor builds a resource governor from cfg. The zero config is
// usable: 2×GOMAXPROCS admission slots, an 8×-deep wait queue, no queue
// deadline and an unlimited memory ledger.
func NewGovernor(cfg GovernorConfig) *Governor { return governor.New(cfg) }

// WithQuotaContext returns a context whose executions draw their
// per-query ledger account with the given byte quota instead of the
// governor's configured default — the hook a serving layer uses to map
// per-client quotas onto governor accounts while still sharing prepared
// plans across clients. No-op without WithGovernor.
func WithQuotaContext(ctx context.Context, bytes int64) context.Context {
	return governor.WithQuota(ctx, bytes)
}

// WithGovernor routes every execution of this Engine through g: queries
// are admitted (possibly queueing, possibly shed with ErrOverload),
// draw intermediate-result memory from g's shared ledger (exhaustion
// surfaces as ErrMemoryLimit), and run degraded when admitted under
// pressure. Pass the same *Governor to several Engines to govern them
// as one pool. Nil (the default) disables governance.
func WithGovernor(g *Governor) Option {
	return func(o *options) { o.cfg.Governor = g }
}

// WithStoreBudget gives attached on-disk stores (AttachStore) their own
// byte ledger of the given size: sampled page residency across all
// mounts is charged against it, and exceeding it evicts store pages
// instead of failing queries — the knob that makes a corpus far larger
// than RAM queryable under a fixed paging budget. Without it, stores
// charge the governor's shared ledger when one is configured (corpus
// pages then compete with query intermediates), and run unbudgeted
// otherwise. 0 disables the dedicated budget.
func WithStoreBudget(bytes int64) Option {
	return func(o *options) { o.storeBudget = bytes }
}

// WithStoreScrub enables background scrubbing on every store attached
// to this Engine: a pacing-limited loop re-verifies part-file checksums
// (active mappings and standby replicas alike), quarantines corrupted
// files, restores them from healthy replicas, and fails suspect parts
// over — so silent on-disk corruption is repaired before a query trips
// on it. The zero config (Interval <= 0) disables the loop; ScrubStores
// still scrubs on demand.
func WithStoreScrub(cfg StoreScrubConfig) Option {
	return func(o *options) { o.scrub = cfg }
}

// Observability re-exports. The collection machinery lives in
// internal/obs; these aliases make the structured statistics usable from
// the public API without importing internal packages.
type (
	// Tracer receives a span per pipeline phase (category "phase"), per
	// executed operator ("op"), and — under WithParallelism — per morsel
	// ("morsel", on track worker+1). StartSpan returns the span closer.
	Tracer = obs.Tracer
	// RunStats is one execution's per-operator statistics (Result.Stats).
	RunStats = obs.RunStats
	// OpStats is one plan operator's measured statistics.
	OpStats = obs.OpStats
	// WorkerStats is one worker's share of a parallel operator's morsels.
	WorkerStats = obs.WorkerStats
	// JSONTrace is a Tracer writing Trace Event Format JSON, loadable in
	// chrome://tracing or Perfetto.
	JSONTrace = obs.JSONTrace
	// Metric is one engine-wide metric in a snapshot (see Metrics).
	Metric = obs.Metric
)

// NewJSONTrace returns a Tracer that streams Trace Event Format JSON to
// w; call Close after the traced work to terminate the JSON array.
func NewJSONTrace(w io.Writer) *JSONTrace { return obs.NewJSONTrace(w) }

// Metrics snapshots the process-wide engine metrics (queries executed,
// cells materialized, memo hits, morsels, query latency histogram),
// sorted by name. These counters are always on — they cost single atomic
// adds — and are cumulative across all Engines in the process.
func Metrics() []Metric { return obs.Default.Snapshot() }

// WriteMetrics writes the Metrics snapshot as "name value" text lines.
func WriteMetrics(w io.Writer) error { return obs.Default.Write(w) }

// WithCollect attaches per-operator statistics to every execution:
// Result.Stats reports rows, wall time, memo hits and morsel distribution
// per plan operator. Every run measures them (Result.Profile is their
// roll-up by origin); off by default, the only saving is the copy into
// Result.Stats.
func WithCollect(on bool) Option {
	return func(o *options) { o.cfg.Collect = on }
}

// WithTracer streams execution spans to t; see Tracer for the span
// categories. Nil (the default) disables tracing.
func WithTracer(t Tracer) Option {
	return func(o *options) { o.cfg.Tracer = t }
}

// Engine holds loaded documents and configuration. It is safe for
// concurrent use: queries may execute while documents are being loaded
// (the document registry is lock-guarded, and every execution works
// against a point-in-time snapshot of it — a query sees exactly the
// documents registered when it started).
type Engine struct {
	mu    sync.RWMutex
	store *xmltree.Store
	docs  map[string][]uint32
	opts  options
	// mounts tracks attached on-disk stores (AttachStore); mountsMu is
	// held shared by every execution so DetachStore can wait out queries
	// still reading mmap'd columns before unmapping them.
	mounts   map[string]*storeMount
	mountsMu sync.RWMutex
	// storeLedger is the dedicated paging budget for attached stores
	// (WithStoreBudget); nil = charge the governor's ledger, if any.
	storeLedger *xdm.Ledger
}

// register adds a parsed fragment to the registry.
func (e *Engine) register(name string, id uint32) { e.swap(name, []uint32{id}) }

// swap points name at ids (nil: unregisters name) and releases the
// fragments name held before, so reloads and removals do not grow the
// store. It reports whether name was registered.
func (e *Engine) swap(name string, ids []uint32) bool {
	e.mu.Lock()
	_, ok := e.docs[name]
	release := e.swapLocked(name, ids)
	e.mu.Unlock()
	e.releaseDrained(release)
	return ok
}

// swapLocked points name at ids (nil: unregisters name) and returns the
// fragments name held before that no attached store owns — those stay
// with DetachStore — for releaseDrained. Callers hold e.mu.
func (e *Engine) swapLocked(name string, ids []uint32) (release []uint32) {
	for _, id := range e.docs[name] {
		if !e.mountedLocked(id) {
			release = append(release, id)
		}
	}
	if ids == nil {
		delete(e.docs, name)
	} else {
		e.docs[name] = ids
	}
	return release
}

// releaseDrained releases unregistered fragments only after every
// in-flight execution has finished — one may hold a registry snapshot
// naming them without having derived its store yet — behind the drain
// barrier DetachStore uses.
func (e *Engine) releaseDrained(ids []uint32) {
	if len(ids) == 0 {
		return
	}
	e.mountsMu.Lock()
	e.mountsMu.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	e.store.Release(ids...)
}

// mountedLocked reports whether an attached store owns fragment id.
// Callers hold e.mu.
func (e *Engine) mountedLocked(id uint32) bool {
	for _, m := range e.mounts {
		if slices.Contains(m.ids, id) {
			return true
		}
	}
	return false
}

// docsSnapshot copies the registry for one execution, so a concurrent
// LoadDocument cannot race with the running query's doc() lookups. The
// id slices are shared: they are immutable once registered.
func (e *Engine) docsSnapshot() map[string][]uint32 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	snap := make(map[string][]uint32, len(e.docs))
	for n, ids := range e.docs {
		snap[n] = ids
	}
	return snap
}

// New creates an engine. By default order indifference and all plan
// rewrites are enabled and queries follow their prolog's ordering mode.
func New(opts ...Option) *Engine {
	o := options{cfg: core.DefaultConfig()}
	for _, f := range opts {
		f(&o)
	}
	e := &Engine{
		store:  xmltree.NewStore(),
		docs:   make(map[string][]uint32),
		mounts: make(map[string]*storeMount),
		opts:   o,
	}
	if o.storeBudget > 0 {
		e.storeLedger = xdm.NewLedger(o.storeBudget)
	}
	return e
}

// LoadDocument parses an XML document from r and registers it under name
// for fn:doc(name). Input guards (xmltree.DefaultLimits: 1 GiB of raw
// XML, 1024 levels of nesting, ~67M nodes) bound what a hostile document
// can make the process materialize; violations return an error wrapping
// ErrLimit.
func (e *Engine) LoadDocument(name string, r io.Reader) error {
	f, err := xmltree.Parse(r, name, xmltree.DefaultLimits())
	if err != nil {
		return err
	}
	e.register(name, e.store.Add(f))
	return nil
}

// DocumentLimits re-exports the XML parser's input guards
// (xmltree.ParseOptions) so serving layers can tighten them per
// deployment — e.g. a small MaxBytes on an upload endpoint — without
// importing internal packages.
type DocumentLimits = xmltree.ParseOptions

// DefaultDocumentLimits returns the guards LoadDocument applies: 1 GiB of
// raw XML, 1024 levels of nesting, ~67M nodes.
func DefaultDocumentLimits() DocumentLimits { return xmltree.DefaultLimits() }

// LoadDocumentLimited is LoadDocument under caller-chosen input guards.
// Violations return an error wrapping ErrLimit (and therefore ErrParse).
func (e *Engine) LoadDocumentLimited(name string, r io.Reader, lim DocumentLimits) error {
	f, err := xmltree.Parse(r, name, lim)
	if err != nil {
		return err
	}
	e.register(name, e.store.Add(f))
	return nil
}

// RemoveDocument unregisters a document; fn:doc(name) in queries started
// afterwards fails. Queries already running keep their snapshot of the
// registry and finish unaffected. It reports whether name was registered.
func (e *Engine) RemoveDocument(name string) bool { return e.swap(name, nil) }

// LoadDocumentString is LoadDocument over a string.
func (e *Engine) LoadDocumentString(name, doc string) error {
	f, err := xmltree.ParseString(doc, name, xmltree.DefaultLimits())
	if err != nil {
		return err
	}
	e.register(name, e.store.Add(f))
	return nil
}

// LoadXMark generates a synthetic XMark auction document at the given
// scale factor (1.0 ≈ 25,500 persons) and registers it under name.
func (e *Engine) LoadXMark(name string, factor float64) {
	f := xmark.Generate(xmark.Config{Factor: factor})
	e.register(name, e.store.Add(f))
}

// Documents lists the registered document names in sorted order.
func (e *Engine) Documents() []string {
	e.mu.RLock()
	out := make([]string, 0, len(e.docs))
	for n := range e.docs {
		out = append(out, n)
	}
	e.mu.RUnlock()
	sort.Strings(out)
	return out
}

// DocumentInfo summarizes a loaded document.
type DocumentInfo struct {
	Nodes      int
	Elements   int
	Attributes int
	Texts      int
	MaxDepth   int
}

// DocumentStats returns node statistics for a loaded document, summed
// over all parts for a sharded corpus.
func (e *Engine) DocumentStats(name string) (DocumentInfo, error) {
	// Shared mount lock, as in Reference: a concurrent DetachStore must
	// not release and unmap a mounted document's columns mid-read.
	e.mountsMu.RLock()
	defer e.mountsMu.RUnlock()
	e.mu.RLock()
	ids, ok := e.docs[name]
	e.mu.RUnlock()
	if !ok {
		return DocumentInfo{}, fmt.Errorf("exrquy: unknown document %q", name)
	}
	var info DocumentInfo
	for _, id := range ids {
		st := e.store.Frag(id).ComputeStats()
		info.Nodes += st.Nodes
		info.Elements += st.Elements
		info.Attributes += st.Attrs
		info.Texts += st.Texts
		if d := int(st.MaxLevel); d > info.MaxDepth {
			info.MaxDepth = d
		}
	}
	return info, nil
}

// coreConfig is the Engine's pipeline configuration with its store probe
// attached.
func (e *Engine) coreConfig() core.Config {
	cfg := e.opts.cfg
	cfg.StoreProbe = e.storeProbe
	return cfg
}

// Compile prepares a query for (repeated) execution.
func (e *Engine) Compile(query string) (*Query, error) {
	return e.CompileWith(query, nil)
}

// CompileWith prepares a query binding its external prolog variables
// (declare variable $x external). Values may be Go strings, booleans,
// ints, floats, or slices thereof (bound as sequences).
func (e *Engine) CompileWith(query string, vars map[string]any) (*Query, error) {
	cfg := e.coreConfig()
	if len(vars) > 0 {
		cfg.Vars = make(map[string][]xdm.Item, len(vars))
		for name, v := range vars {
			items, err := toItems(v)
			if err != nil {
				return nil, fmt.Errorf("exrquy: variable $%s: %w", name, err)
			}
			cfg.Vars[name] = items
		}
	}
	p, err := core.Prepare(query, cfg)
	if err != nil {
		return nil, err
	}
	return &Query{prepared: p, eng: e, text: query}, nil
}

// QueryWith compiles with variable bindings and executes in one call.
func (e *Engine) QueryWith(query string, vars map[string]any) (*Result, error) {
	q, err := e.CompileWith(query, vars)
	if err != nil {
		return nil, err
	}
	return q.Execute()
}

// toItems converts a Go value to an XDM item sequence.
//
// Ownership: a []xdm.Item argument is adopted as-is, not copied — the
// engine takes ownership and the caller must not mutate it afterwards.
// This is the same convention the typed column constructors
// (xdm.IntColumn, xdm.FromItemsOwned, ...) use: the one party that built
// the slice hands it over, and no layer pays a defensive copy. All other
// slice types ([]string, []int, []any) are converted element-wise into a
// fresh slice, so those callers keep ownership of their input.
func toItems(v any) ([]xdm.Item, error) {
	switch v := v.(type) {
	case nil:
		return nil, nil
	case []xdm.Item:
		return v, nil
	case xdm.Item:
		return []xdm.Item{v}, nil
	case int:
		return []xdm.Item{xdm.NewInt(int64(v))}, nil
	case int32:
		return []xdm.Item{xdm.NewInt(int64(v))}, nil
	case int64:
		return []xdm.Item{xdm.NewInt(v)}, nil
	case float32:
		return []xdm.Item{xdm.NewDouble(float64(v))}, nil
	case float64:
		return []xdm.Item{xdm.NewDouble(v)}, nil
	case string:
		return []xdm.Item{xdm.NewString(v)}, nil
	case bool:
		return []xdm.Item{xdm.NewBool(v)}, nil
	case []string:
		out := make([]xdm.Item, len(v))
		for i, s := range v {
			out[i] = xdm.NewString(s)
		}
		return out, nil
	case []int:
		out := make([]xdm.Item, len(v))
		for i, n := range v {
			out[i] = xdm.NewInt(int64(n))
		}
		return out, nil
	case []any:
		var out []xdm.Item
		for _, el := range v {
			items, err := toItems(el)
			if err != nil {
				return nil, err
			}
			out = append(out, items...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unsupported value type %T", v)
	}
}

// Query compiles and executes in one call.
func (e *Engine) Query(query string) (*Result, error) {
	return e.QueryContext(context.Background(), query)
}

// QueryContext compiles and executes in one call under a context:
// ctx.Done() aborts a running query cooperatively on both the serial and
// the parallel path, returning an error wrapping ErrCanceled (or
// ErrTimeout when the context carried a deadline) and ctx's own error.
func (e *Engine) QueryContext(ctx context.Context, query string) (*Result, error) {
	q, err := e.Compile(query)
	if err != nil {
		return nil, err
	}
	return q.ExecuteContext(ctx)
}

// Reference evaluates a query with the reference tree-walking interpreter
// (strict ordered semantics) — the correctness oracle and the
// conventional-processor baseline.
func (e *Engine) Reference(query string) (*Result, error) {
	e.mountsMu.RLock()
	ip := interp.New(e.store, e.docsSnapshot())
	res, err := ip.EvalString(query)
	e.mountsMu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &Result{items: res.Items, store: res.Store, eng: e}, nil
}

// Query is a compiled query.
type Query struct {
	prepared *core.Prepared
	eng      *Engine
	text     string
}

// Execute runs the plan against the engine's documents.
func (q *Query) Execute() (*Result, error) {
	return q.ExecuteContext(context.Background())
}

// maxStoreFailovers bounds how many times one ExecuteContext call will
// fail a store over and re-execute after a retryable corrupt-store
// fault. Each retry consumes a replica swap; past the bound the fault
// surfaces to the caller (it is still retryable there if a standby
// remains).
const maxStoreFailovers = 3

// ExecuteContext runs the plan under a context; see QueryContext for the
// cancellation contract.
//
// Storage faults heal transparently: when execution aborts on a
// retryable corrupt-store error (a mounted part went suspect but a
// healthy replica remains), the engine fails the affected parts over to
// their standby replicas and re-executes — order indifference makes the
// affected plan regions restartable, so the retried run returns exactly
// the bytes the unfaulted run would have. Only a terminal ErrCorrupt
// (every replica of some part bad) reaches the caller.
func (q *Query) ExecuteContext(ctx context.Context) (*Result, error) {
	return q.run(func(store *xmltree.Store, docs map[string][]uint32) (*engine.Result, error) {
		return q.prepared.RunContext(ctx, store, docs)
	})
}

// run drives one execution through the store-failover retry loop of
// ExecuteContext and wraps its result.
func (q *Query) run(exec func(*xmltree.Store, map[string][]uint32) (*engine.Result, error)) (*Result, error) {
	for attempt := 0; ; attempt++ {
		// Shared mount lock: a DetachStore must not unmap columns a running
		// query may still be scanning. Uncontended outside detach windows.
		q.eng.mountsMu.RLock()
		res, err := exec(q.eng.store, q.eng.docsSnapshot())
		q.eng.mountsMu.RUnlock()
		if err != nil {
			if attempt < maxStoreFailovers && qerr.IsRetryableCorrupt(err) && q.eng.failoverStores() {
				continue
			}
			return nil, err
		}
		return &Result{
			items: res.Items, store: res.Store, eng: q.eng, profile: res.Profile,
			elapsed: res.Elapsed, stats: res.Stats,
			degraded: res.Degraded, queueWait: res.QueueWait,
		}, nil
	}
}

// Explain renders the optimized plan DAG as indented text.
func (q *Query) Explain() string { return q.prepared.Explain() }

// Analyze is EXPLAIN ANALYZE: it executes the query with statistics
// collection forced on (regardless of WithCollect) and returns the
// result alongside the plan rendering annotated with measured per-
// operator rows, wall time, memo hits and morsel distribution.
func (q *Query) Analyze() (*Result, string, error) {
	return q.AnalyzeContext(context.Background())
}

// AnalyzeContext is Analyze under a context (see QueryContext for the
// cancellation contract).
func (q *Query) AnalyzeContext(ctx context.Context) (res *Result, text string, err error) {
	res, err = q.run(func(store *xmltree.Store, docs map[string][]uint32) (r *engine.Result, err error) {
		r, text, err = q.prepared.Analyze(ctx, store, docs)
		return r, err
	})
	return res, text, err
}

// Text returns the query source.
func (q *Query) Text() string { return q.text }

// Documents returns the fn:doc() URIs the compiled plan reads, in
// first-reference order. The set is exact and static (doc() only accepts
// string literals), which is what lets a serving layer invalidate cached
// plans for exactly the documents a reload touched.
func (q *Query) Documents() []string { return q.prepared.Documents() }

// OpCounts summarizes a plan: total operators, ρ sorts, # stamps.
type OpCounts struct {
	Operators int
	Sorts     int // ρ (rownum) — blocking sorts
	Stamps    int // # (rowid) — free numbering
}

// PlanStats reports operator counts before and after optimization — the
// quantities behind the paper's Figure 6/9 and §4.1 plan-size claims.
func (q *Query) PlanStats() (before, after OpCounts) {
	b, a := q.prepared.StatsBefore, q.prepared.StatsAfter
	return OpCounts{b.Operators, b.RowNums, b.RowIDs}, OpCounts{a.Operators, a.RowNums, a.RowIDs}
}

// ProfileEntry re-exports the engine's per-origin timing record.
type ProfileEntry = engine.ProfileEntry

// Result is an executed query result.
type Result struct {
	items     []xdm.Item
	store     *xmltree.Store
	eng       *Engine // for the shared mount lock during serialization
	profile   []ProfileEntry
	elapsed   time.Duration
	stats     *RunStats
	degraded  bool
	queueWait time.Duration
}

// Len returns the number of items in the result sequence.
func (r *Result) Len() int { return len(r.items) }

// XML serializes the full result sequence per the XQuery serialization
// rules.
func (r *Result) XML() (string, error) {
	// Node items may reference mmap'd store columns; hold the shared
	// mount lock so a concurrent DetachStore cannot unmap them while
	// they serialize.
	if r.eng != nil {
		r.eng.mountsMu.RLock()
		defer r.eng.mountsMu.RUnlock()
	}
	return xmltree.SerializeItems(r.store, r.items)
}

// Items serializes each item individually, preserving sequence order.
func (r *Result) Items() ([]string, error) {
	if r.eng != nil {
		r.eng.mountsMu.RLock()
		defer r.eng.mountsMu.RUnlock()
	}
	out := make([]string, len(r.items))
	for i := range r.items {
		s, err := xmltree.SerializeItems(r.store, r.items[i:i+1])
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// Profile returns per-origin evaluation times (descending), reproducing
// the shape of the paper's Table 2; empty for Reference results.
func (r *Result) Profile() []ProfileEntry { return r.profile }

// Elapsed returns the wall-clock execution time (zero for Reference
// results).
func (r *Result) Elapsed() time.Duration { return r.elapsed }

// Stats returns the per-operator statistics of this execution, or nil
// unless the engine was built WithCollect (or the result came from
// Analyze). The RunStats marshals to JSON for external tooling.
func (r *Result) Stats() *RunStats { return r.stats }

// Degraded reports whether a resource governor downgraded this
// execution (parallel plan forced serial) because the process was under
// pressure when the query was admitted. Always false without
// WithGovernor. A degraded result is identical to the undegraded one —
// only order-indifferent plan regions run parallel in the first place.
func (r *Result) Degraded() bool { return r.degraded }

// QueueWait returns how long the query waited in the governor's
// admission queue before executing (zero without WithGovernor, or when
// a slot was free immediately).
func (r *Result) QueueWait() time.Duration { return r.queueWait }
