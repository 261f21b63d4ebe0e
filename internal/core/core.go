// Package core wires the eXrQuy pipeline together — the paper's primary
// contribution as one composable unit:
//
//	parse (xquery) → normalize (norm) → compile (compile)
//	      → optimize (opt: column dependency analysis & friends)
//	      → flatten and execute (vm, over the engine's kernels)
//
// The Config switches mirror the paper's experimental configurations: the
// baseline compiler that "proceeds as if strict ordering is required
// throughout" versus the order-indifference-aware compiler of §4, with
// each optimizer rewrite individually controllable for ablations.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/governor"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/qerr"
	"repro/internal/resilience"
	"repro/internal/vm"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Config selects pipeline behaviour.
type Config struct {
	// Indifference enables the order-indifference machinery end to end:
	// fn:unordered() insertion during normalization (Figure 4 rules),
	// the compiler rules FN:UNORDERED/LOC#/BIND# (Figure 7), and the
	// optimizer (column dependency analysis, §4.1). Off = the baseline.
	Indifference bool
	// ForceOrdering overrides the module prolog's ordering mode when
	// non-nil (the experiments inject "declare ordering unordered" this
	// way instead of editing query text).
	ForceOrdering *xquery.OrderingMode
	// Opt configures the optimizer; ignored unless Indifference is set.
	Opt opt.Options
	// Timeout bounds execution wall-clock time (the paper used 30 s).
	// RunContext applies it as a context deadline once the governor has
	// admitted the execution, so queue wait does not count toward it.
	Timeout time.Duration
	// MaxCells bounds materialized intermediate results (0 = unlimited);
	// exceeding it aborts with a cutoff error, like the gaps in the
	// paper's Figure 12.
	MaxCells int64
	// Parallelism offers order-dead plan regions (opt.MarkParallel) to a
	// morsel worker pool of this size. 0 or 1 keeps every operator serial
	// (the paper's configuration); negative means runtime.GOMAXPROCS(0).
	Parallelism int
	// Compiled says when the optimized plan is flattened into the
	// executor's program (internal/vm): true (DefaultConfig) flattens once
	// at Prepare — what a cached Prepared reuses across executions — and
	// false flattens at each Run. Results are byte-identical either way.
	Compiled bool
	// Vars binds external prolog variables (declare variable $x external).
	Vars map[string][]xdm.Item
	// Collect attaches the executor's per-operator records (obs.OpStats,
	// the same records every run rolls up into Result.Profile) to each
	// Result as an obs.RunStats, which Prepared.ExplainAnalyze renders
	// against the plan. Off (the default) skips only that copy.
	Collect bool
	// Tracer, when non-nil, receives a span per pipeline phase (category
	// "phase") and per executed operator ("op"); the parallel executor adds
	// per-morsel spans ("morsel") on worker tracks. obs.NewJSONTrace writes
	// chrome://tracing-compatible output.
	Tracer obs.Tracer
	// Governor, when non-nil, routes every execution through the
	// process-wide resource governor: admission control (possibly
	// queueing, possibly shedding with qerr.ErrOverload), a shared byte
	// ledger charged alongside the per-query cell budget, and graceful
	// degradation — a lease admitted under pressure runs its Par-marked
	// plan regions serially. Shared across Configs/Engines by design; the
	// budgets are process-global.
	Governor *governor.Governor
	// StoreProbe, when non-nil, is a per-execution probe factory: it is
	// invoked once at the start of every RunContext and the closure it
	// returns is polled at every cooperative poll point of that
	// execution (engine.Options.StoreProbe). The factory shape lets the
	// mounting engine give each execution its own fault-observation
	// state — e.g. "inject at most one storage fault per execution" —
	// while the probe itself stays a two-atomic-load fast path.
	StoreProbe func() func() error
}

// DefaultConfig enables everything — the paper's "order indifference
// enabled" configuration.
func DefaultConfig() Config {
	return Config{Indifference: true, Opt: opt.AllOptions(), Compiled: true}
}

// BaselineConfig is the order-ignorant configuration of §5.
func BaselineConfig() Config { return Config{} }

// Prepared is a compiled query ready for (repeated) execution.
type Prepared struct {
	Module *xquery.Module
	Plan   *compile.Plan
	// StatsBefore/StatsAfter hold plan statistics before and after
	// optimization (equal when the optimizer is off) — the data behind
	// the paper's Figure 6/9 and §4.1 plan-size claims.
	StatsBefore, StatsAfter struct {
		Operators, RowNums, RowIDs int
	}
	// Program is the flattened form of the optimized plan, built once at
	// Prepare time (nil unless Config.Compiled; RunContext then flattens
	// per run). Documents bind at each Run, so a cached Prepared — the
	// exrquyd plan cache stores these — is safe across document reloads
	// and concurrent executions.
	Program *vm.Program
	cfg     Config
}

// Prepare parses, normalizes, compiles and optimizes a query. Every
// static-phase failure comes back classified in the qerr taxonomy
// (ErrParse with position, ErrCompile) and every phase is panic-isolated:
// a pipeline bug tripped by a hostile query surfaces as qerr.ErrInternal
// naming the phase, never as a process crash.
func Prepare(src string, cfg Config) (*Prepared, error) {
	end := cfg.span("parse")
	mod, err := xquery.Parse(src)
	end()
	if err != nil {
		return nil, qerr.Ensure(qerr.ErrParse, "parse", err)
	}
	return PrepareModule(mod, cfg)
}

// noSpan is the shared no-op span closer handed out when tracing is off.
var noSpan = func() {}

// span opens a pipeline-phase span on the coordinator track (tid 0) when
// a Tracer is configured; the returned closer is never nil.
func (cfg Config) span(name string) func() {
	if cfg.Tracer == nil {
		return noSpan
	}
	return cfg.Tracer.StartSpan(0, "phase", name)
}

// PrepareModule is Prepare over an already-parsed module.
func PrepareModule(mod *xquery.Module, cfg Config) (p *Prepared, err error) {
	if cfg.ForceOrdering != nil {
		forced := *mod
		forced.Ordering = *cfg.ForceOrdering
		mod = &forced
	}
	end := cfg.span("normalize")
	nm, err := normalize(mod, cfg)
	end()
	if err != nil {
		return nil, err
	}
	end = cfg.span("compile")
	plan, err := compilePlan(nm, cfg)
	end()
	if err != nil {
		return nil, err
	}
	p = &Prepared{Module: nm, Plan: plan, cfg: cfg}
	p.StatsBefore = planCounts(plan)
	end = cfg.span("optimize")
	err = optimize(p, cfg)
	end()
	if err != nil {
		return nil, err
	}
	if cfg.Compiled {
		if p.Program, err = flatten(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// flatten turns the optimized plan into the executor's program with
// panic isolation; a bug there surfaces as ErrInternal naming the phase,
// with the algebra plan attached for diagnosis.
func flatten(p *Prepared) (prog *vm.Program, err error) {
	defer p.cfg.span("flatten")()
	defer func() {
		if err != nil {
			qerr.AttachPlan(err, opt.Explain(p.Plan.Root))
		}
	}()
	defer qerr.RecoverInto("flatten", &err)
	return vm.Compile(p.Plan.Root), nil
}

// normalize runs the normalization phase with panic isolation and error
// classification (normalization failures are static query errors, so
// they class as ErrCompile in phase "normalize").
func normalize(mod *xquery.Module, cfg Config) (nm *xquery.Module, err error) {
	defer qerr.RecoverInto("normalize", &err)
	nm, err = norm.Normalize(mod, norm.Options{InsertUnordered: cfg.Indifference})
	if err != nil {
		return nil, qerr.Ensure(qerr.ErrCompile, "normalize", err)
	}
	return nm, nil
}

// compilePlan runs the loop-lifting compiler with panic isolation. The
// compiler converts its own user-facing failures already; anything else
// escaping it (builder schema violations are deliberate panics) becomes
// ErrInternal here.
func compilePlan(nm *xquery.Module, cfg Config) (plan *compile.Plan, err error) {
	defer qerr.RecoverInto("compile", &err)
	plan, err = compile.Compile(nm, compile.Options{Indifference: cfg.Indifference, Vars: cfg.Vars})
	if err != nil {
		return nil, qerr.Ensure(qerr.ErrCompile, "compile", err)
	}
	return plan, nil
}

// optimize runs the plan rewrites and the parallel region analysis with
// panic isolation; a failing rewrite reports the pre-optimization plan.
func optimize(p *Prepared, cfg Config) (err error) {
	defer func() {
		if err != nil {
			qerr.AttachPlan(err, opt.Explain(p.Plan.Root))
		}
	}()
	defer qerr.RecoverInto("optimize", &err)
	if cfg.Indifference {
		p.Plan.Root = opt.Optimize(p.Plan.Root, p.Plan.Builder, cfg.Opt)
	}
	p.StatsAfter = planCounts(p.Plan)
	if parallelWorkers(cfg.Parallelism) > 1 {
		// Parallel region analysis: mark the order-dead regions the
		// morsel-wise executor may partition. Runs for the baseline
		// compiler too — order-deadness is a plan property, not an
		// optimizer rewrite — but only when parallel execution is on, so
		// serial Explain output matches the seed.
		opt.MarkParallel(p.Plan.Root)
	}
	return nil
}

// parallelWorkers resolves the Config.Parallelism knob to a pool size.
func parallelWorkers(p int) int {
	if p < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

func planCounts(plan *compile.Plan) struct{ Operators, RowNums, RowIDs int } {
	s := opt.PlanStats(plan.Root)
	return struct{ Operators, RowNums, RowIDs int }{s.Operators, s.RowNums, s.RowIDs}
}

// Run executes the prepared plan against a store and document registry.
func (p *Prepared) Run(store *xmltree.Store, docs map[string][]uint32) (*engine.Result, error) {
	return p.RunContext(context.Background(), store, docs)
}

// RunContext is Run under a context: ctx.Done() aborts the execution
// cooperatively (morsel workers poll it too), returning an
// error that wraps qerr.ErrCanceled (or qerr.ErrTimeout for a context
// deadline) and the context's own error. Internal failures during
// execution come back as qerr.ErrInternal carrying the optimized plan's
// Explain() dump.
func (p *Prepared) RunContext(ctx context.Context, store *xmltree.Store, docs map[string][]uint32) (*engine.Result, error) {
	// Admission control: with a governor configured, every execution
	// first claims a slot (possibly queueing, possibly being shed with
	// qerr.ErrOverload) and draws its memory from the shared ledger. A
	// lease admitted under pressure degrades the run: Par-marked plan
	// regions run serially — safe because the morsel pool only ever
	// touches order-indifferent regions, whose results are identical
	// either way.
	var lease *governor.Lease
	var memory *xdm.Account
	degraded := false
	if g := p.cfg.Governor; g != nil {
		var err error
		lease, err = g.Admit(ctx)
		if err != nil {
			return nil, err
		}
		defer lease.Release()
		memory = lease.Account()
		degraded = lease.Degraded()
	}
	// The time limit starts after admission: queue wait does not count.
	if p.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.Timeout)
		defer cancel()
	}
	// Watchdog liveness: when a serving-layer watchdog registered a
	// heartbeat on this context (resilience.Watch), hand it to the engine
	// so every cooperative poll point proves the query is making progress.
	beat := resilience.HeartbeatFrom(ctx)
	// Storage health: one probe closure per execution, so per-execution
	// fault-injection state (and suspect-part observation) is scoped to
	// this run and shared by all its workers.
	var storeProbe func() error
	if p.cfg.StoreProbe != nil {
		storeProbe = p.cfg.StoreProbe()
	}
	prog := p.Program
	if prog == nil {
		var err error
		if prog, err = flatten(p); err != nil {
			return nil, err
		}
	}
	workers := parallelWorkers(p.cfg.Parallelism)
	if degraded {
		workers = 1
	}
	end := p.cfg.span("execute")
	res, err := vm.Run(prog, store, docs, vm.Options{
		Options: engine.Options{
			Context:    ctx,
			MaxCells:   p.cfg.MaxCells,
			Memory:     memory,
			Tracer:     p.cfg.Tracer,
			Heartbeat:  beat,
			StoreProbe: storeProbe,
		},
		Workers: workers,
		Collect: p.cfg.Collect,
	})
	end()
	if err != nil {
		if errors.Is(err, qerr.ErrInternal) {
			qerr.AttachPlan(err, p.Explain())
		}
		return nil, err
	}
	if lease != nil {
		res.Degraded = degraded
		res.QueueWait = lease.QueueWait()
		if res.Stats != nil {
			res.Stats.Degraded = degraded
			res.Stats.QueueWait = lease.QueueWait()
		}
	}
	return res, nil
}

// Explain renders the (optimized) plan DAG as text.
func (p *Prepared) Explain() string { return opt.Explain(p.Plan.Root) }

// Documents returns the fn:doc() URIs the plan reads, in first-reference
// order. The set is exact and static: the compiler only accepts
// string-literal doc() arguments, so every document access is an OpDoc
// node with a fixed URI — which is what lets a serving layer scope
// plan-cache invalidation to the documents a plan actually mentions
// (plans are document-independent until execution binds the registry).
func (p *Prepared) Documents() []string {
	var uris []string
	seenURI := make(map[string]bool)
	seen := make(map[*algebra.Node]bool)
	var visit func(n *algebra.Node)
	visit = func(n *algebra.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		if n.Kind == algebra.OpDoc && !seenURI[n.URI] {
			seenURI[n.URI] = true
			uris = append(uris, n.URI)
		}
		for _, in := range n.Ins {
			visit(in)
		}
	}
	visit(p.Plan.Root)
	return uris
}

// ExplainAnalyze renders the plan annotated with the measured statistics
// of an actual execution — the EXPLAIN ANALYZE view. st is the RunStats
// of a run of this plan (Result.Stats under Config.Collect); nodes the
// run never evaluated (or that st does not cover) print "[not executed]".
// A trailing summary reports totals: elapsed, memo hits and pool traffic.
func (p *Prepared) ExplainAnalyze(st *obs.RunStats) string {
	if st == nil {
		return p.Explain()
	}
	out := algebra.PrintAnnotated(p.Plan.Root, func(n *algebra.Node) string {
		op := st.Op(n.ID)
		if op == nil {
			return "  [not executed]"
		}
		s := fmt.Sprintf("  [rows=%d wall=%s", op.RowsOut, op.Wall.Round(time.Microsecond))
		if op.MemoHits > 0 {
			s += fmt.Sprintf(" memo=%d", op.MemoHits)
		}
		if op.Morsels > 0 {
			s += fmt.Sprintf(" morsels=%d/%dw busy=%s", op.Morsels, len(op.Workers), op.Busy.Round(time.Microsecond))
		}
		return s + "]"
	})
	out += fmt.Sprintf("-- elapsed %s, %d operator(s) executed, %d memo hit(s), pool %d hit(s)/%d miss(es)\n",
		st.Elapsed.Round(time.Microsecond), len(st.Ops), st.MemoHits, st.PoolHits, st.PoolMisses)
	return out
}

// Analyze executes the prepared plan with statistics collection forced on
// (regardless of Config.Collect) and returns the result alongside the
// annotated plan text. It is the engine behind `exrquy -analyze`.
func (p *Prepared) Analyze(ctx context.Context, store *xmltree.Store, docs map[string][]uint32) (*engine.Result, string, error) {
	q := *p
	q.cfg.Collect = true
	res, err := q.RunContext(ctx, store, docs)
	if err != nil {
		return nil, "", err
	}
	return res, p.ExplainAnalyze(res.Stats), nil
}
