package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// Options configures an execution.
type Options struct {
	// Context, when non-nil, cancels evaluation cooperatively: the
	// executor polls ctx.Done() before every operator and inside the
	// heavy operator loops, so cancellation aborts
	// a running query promptly. The resulting error wraps
	// qerr.ErrCanceled and the context's own cause, so
	// errors.Is(err, context.Canceled) holds. A context deadline is the
	// execution's one time limit: its error wraps qerr.ErrTimeout and
	// ErrCutoff instead.
	Context context.Context
	// MaxCells bounds the total number of table cells materialized during
	// one execution (a memory cutoff for intermediate-result blowups);
	// zero means no limit.
	MaxCells int64
	// Memory, when non-nil, charges materialized cells (at
	// xdm.NominalCellBytes each) against a process-wide byte ledger
	// account — the multi-query governor's shared budget. A failed
	// reservation aborts the execution with qerr.ErrMemoryLimit naming
	// the exhausted bound (global ledger or per-query quota), its limit
	// and the observed usage. The account's lifetime is the caller's:
	// the engine only reserves, it never closes.
	Memory *xdm.Account
	// Tracer, when non-nil, receives one span per operator kernel
	// evaluation (category "op", track 0). Pipeline-phase spans are the
	// caller's job (package core).
	Tracer obs.Tracer
	// Heartbeat, when non-nil, is bumped at every cooperative poll point
	// (CheckCancel and everything routed through it) — the liveness
	// signal a serving-layer watchdog (internal/resilience) uses to tell
	// a slow query from a wedged one. One atomic add per poll; nil costs
	// a single pointer comparison.
	Heartbeat *atomic.Int64
	// StoreProbe, when non-nil, is polled at every cooperative poll
	// point alongside the heartbeat. It surfaces storage faults (suspect
	// mmap'd parts) into the execution as classified errors, because a
	// corrupt mapped page cannot signal failure through the read that
	// touches it. A non-nil error aborts the query exactly like a
	// cancellation; nil costs one pointer comparison per poll.
	StoreProbe func() error
}

// ErrCutoff is returned (wrapped) when an execution exceeds its time or
// memory cutoff. It aliases qerr.ErrCutoff: both qerr.ErrTimeout and
// qerr.ErrMemoryLimit wrap it, so errors.Is(err, ErrCutoff) keeps
// matching either cutoff class as it always has.
var ErrCutoff = qerr.ErrCutoff

// EvalHook, when non-nil, runs before every serial operator kernel
// evaluation (EvalOp). It exists for tests that wedge or break a kernel
// (a query stuck without polling, a panicking operator) and must not be
// set while queries are running. The same point is the fault.Kernels
// site: an armed plan's panic class fires there.
var EvalHook func(n *algebra.Node)

// ProfileEntry aggregates evaluation time by operator origin; the set of
// origins reproduces the sub-expression rows of Table 2.
type ProfileEntry = obs.ProfileEntry

// Result is an executed query: the item sequence in serialization order,
// the store owning constructed nodes, and the per-origin profile. Profile
// and Stats are two views of the executor's per-operator records (see
// internal/vm); Stats is non-nil only when collection was on.
type Result struct {
	Items   []xdm.Item
	Store   *xmltree.Store
	Profile []ProfileEntry
	Elapsed time.Duration
	Stats   *obs.RunStats
	// QueueWait is the time the query spent in the governor's admission
	// queue before executing (zero without a governor, or when a slot
	// was free immediately).
	QueueWait time.Duration
}

// SerializeXML renders the result per the XQuery serialization rules.
func (r *Result) SerializeXML() (string, error) {
	return xmltree.SerializeItems(r.Store, r.Items)
}

// Exec is one plan execution's kernel context: the derived store
// receiving constructed fragments and the shared time/memory budget. It
// evaluates one operator at a time (EvalOp); which operator runs next,
// where its inputs live and what it measured are the driver's business
// (internal/vm).
type Exec struct {
	store    *xmltree.Store
	docs     map[string][]uint32
	ctx      context.Context
	done     <-chan struct{}
	maxCells int64
	cells    int64
	mem      *xdm.Account
	tracer   obs.Tracer
	// beat is the watchdog heartbeat (Options.Heartbeat); nil when no one
	// is watching. Bumped in CheckCancel.
	beat *atomic.Int64
	// storeProbe surfaces storage faults at poll points
	// (Options.StoreProbe); nil when no store is mounted.
	storeProbe func() error
}

// NewExec prepares an execution over a derived store.
func NewExec(base *xmltree.Store, docs map[string][]uint32, opts Options) *Exec {
	ex := &Exec{
		store:      base.Derive(),
		docs:       docs,
		ctx:        opts.Context,
		maxCells:   opts.MaxCells,
		mem:        opts.Memory,
		tracer:     opts.Tracer,
		beat:       opts.Heartbeat,
		storeProbe: opts.StoreProbe,
	}
	if ex.ctx != nil {
		ex.done = ex.ctx.Done()
	}
	return ex
}

// CheckCancel reports a cancellation error once the execution's context
// is done: a single select on a cached channel, cheap enough for
// per-chunk polling inside operator kernels. Reaching any poll point is
// also the query's proof of life: the watchdog heartbeat, when armed, is
// bumped here — before the done check, so heartbeats flow even for
// executions with no cancellable context.
func (ex *Exec) CheckCancel() error {
	if ex.beat != nil {
		ex.beat.Add(1)
	}
	if ex.storeProbe != nil {
		if err := ex.storeProbe(); err != nil {
			return err
		}
	}
	if ex.done == nil {
		return nil
	}
	select {
	case <-ex.done:
		// context.Cause preserves the canceller's reason (e.g. the
		// watchdog's ErrStuck) where ctx.Err flattens it to Canceled.
		cause := context.Cause(ex.ctx)
		if cause == nil {
			cause = ex.ctx.Err()
		}
		if errors.Is(cause, context.DeadlineExceeded) {
			return qerr.New(qerr.ErrTimeout, "execute", fmt.Errorf("engine: time limit: %w: %w", ErrCutoff, cause))
		}
		return qerr.New(qerr.ErrCanceled, "execute", fmt.Errorf("engine: query aborted: %w", cause))
	default:
		return nil
	}
}

// memoryLimitErr classifies a cell-budget overrun, naming the configured
// limit and the observed usage.
func (ex *Exec) memoryLimitErr(observed int64) error {
	return qerr.New(qerr.ErrMemoryLimit, "execute",
		fmt.Errorf("engine: memory limit: %d cells materialized, budget %d cells: %w",
			observed, ex.maxCells, ErrCutoff))
}

// ledgerLimitErr classifies a failed byte-ledger reservation, naming the
// exhausted bound (the governor's global ledger or this query's quota),
// its byte limit and the observed usage.
func (ex *Exec) ledgerLimitErr(ob *xdm.OverBudget) error {
	scope := "global memory budget"
	if ob.Scope == "query" {
		scope = "per-query memory quota"
	}
	return qerr.New(qerr.ErrMemoryLimit, "execute",
		fmt.Errorf("engine: memory limit: %s exhausted: %d bytes needed, %d of %d bytes in use: %w",
			scope, ob.Need, ob.Used, ob.Limit, ErrCutoff))
}

// checkCells verifies a prospective allocation of rows*cols cells against
// the memory cutoff before materializing it (large joins and products
// would otherwise overshoot the budget in a single operator). It also
// polls for cancellation, so the budget-check sites double as the
// cooperative cancellation points.
func (ex *Exec) checkCells(rows, cols int) error {
	if err := ex.CheckCancel(); err != nil {
		return err
	}
	cells := int64(rows) * int64(cols)
	if ex.maxCells > 0 && ex.cells+cells > ex.maxCells {
		return ex.memoryLimitErr(ex.cells + cells)
	}
	if ex.mem != nil {
		if ob := ex.mem.CanReserve(cells * xdm.NominalCellBytes); ob != nil {
			return ex.ledgerLimitErr(ob)
		}
	}
	return nil
}

// ChargeCells adds n materialized cells to the budget — the
// per-execution cell cutoff and, when a governor account is attached, the
// process-wide byte ledger — and reports a cutoff error on overrun. Like
// checkCells it polls for cancellation first.
func (ex *Exec) ChargeCells(n int64) error {
	obs.CellsTotal.Add(n)
	if err := ex.CheckCancel(); err != nil {
		return err
	}
	if ex.maxCells > 0 {
		ex.cells += n
		if ex.cells > ex.maxCells {
			return ex.memoryLimitErr(ex.cells)
		}
	}
	if ex.mem != nil {
		if ob := ex.mem.Reserve(n * xdm.NominalCellBytes); ob != nil {
			return ex.ledgerLimitErr(ob)
		}
	}
	return nil
}

// Finish assembles the Result from the root table: order by pos rank for
// serialization.
func (ex *Exec) Finish(t *Table, start time.Time) *Result {
	res := &Result{Store: ex.store, Elapsed: time.Since(start)}
	// The root carries (pos, item): order by pos rank for serialization.
	items := t.Col("item")
	perm, _, _ := sortByKeys(t.NumRows(), [][]int64{iterInts(t.Col("pos"))}, nil) // no poll, so no error
	res.Items = make([]xdm.Item, t.NumRows())
	for i, r := range perm {
		res.Items[i] = items.Get(int(r))
	}
	xdm.PutInt32s(perm)
	return res
}

// errf formats an operator-attributed evaluation error.
func (ex *Exec) errf(n *algebra.Node, format string, args ...any) error {
	origin := n.Origin
	if origin == "" {
		origin = n.Kind.String()
	}
	return fmt.Errorf("engine: %s: %s", origin, fmt.Sprintf(format, args...))
}

// StartOpSpan opens a tracer span for one kernel evaluation of n; the
// returned func (nil when tracing is off) closes it.
func (ex *Exec) StartOpSpan(n *algebra.Node) func() {
	if ex.tracer == nil {
		return nil
	}
	return ex.tracer.StartSpan(0, "op", algebra.Label(n))
}

// EvalOp evaluates a single operator over already-evaluated inputs.
func (ex *Exec) EvalOp(n *algebra.Node, ins []*Table) (*Table, error) {
	if EvalHook != nil {
		EvalHook(n)
	}
	if p := fault.Armed(); p != nil && p.Fire(fault.Panic, p.Next(fault.Kernels)) {
		panic(fault.InjectedPanic)
	}
	switch n.Kind {
	case algebra.OpLit:
		t := NewTable(n.Cols)
		for c := range n.Cols {
			var b xdm.ColumnBuilder
			for _, row := range n.Rows {
				b.Append(row[c])
			}
			t.Data[c] = b.Finish()
		}
		return t, nil

	case algebra.OpProject:
		in := ins[0]
		t := NewTable(n.Schema())
		for i, p := range n.Proj {
			t.Data[i] = in.Col(p.Old)
		}
		return t, nil

	case algebra.OpSelect:
		return ex.evalFilter(n, ins[0])

	case algebra.OpJoin:
		return ex.evalJoin(n, ins[0], ins[1])

	case algebra.OpCross:
		return ex.evalCross(n, ins[0], ins[1])

	case algebra.OpRowNum:
		return ex.evalRowNum(n, ins[0])

	case algebra.OpRowID:
		// The # stamp: one flat integer buffer, no sort, no boxing — the
		// near-free half of the paper's ρ/# asymmetry.
		in := ins[0]
		num := xdm.GetInts(in.NumRows())
		for i := range num {
			num[i] = int64(i + 1)
		}
		return in.WithColumn(n.Col, xdm.IntColumn(num)), nil

	case algebra.OpBinOp:
		return ex.evalBinOp(n, ins[0])

	case algebra.OpMap1:
		return ex.evalMap1(n, ins[0])

	case algebra.OpUnion:
		l, r := ins[0], ins[1]
		t := NewTable(l.Cols)
		for c, name := range l.Cols {
			var b xdm.ColumnBuilder
			b.AppendColumn(l.Col(name))
			b.AppendColumn(r.Col(name))
			t.Data[c] = b.Finish()
		}
		return t, nil

	case algebra.OpSemi, algebra.OpDiff:
		return ex.evalSemiDiff(n, ins[0], ins[1])

	case algebra.OpDistinct:
		return ex.evalDistinct(n, ins[0])

	case algebra.OpAggr:
		return ex.evalAggr(n, ins[0])

	case algebra.OpStep:
		return ex.evalStep(n, ins[0])

	case algebra.OpDoc:
		ids, ok := ex.docs[n.URI]
		if !ok {
			return nil, ex.errf(n, "unknown document %q", n.URI)
		}
		// One row per registered root, in registration (shard part)
		// order: downstream steps preserve this order, so a sharded
		// corpus evaluates part-wise yet serializes identically to the
		// unsharded document set.
		roots := make([]xdm.NodeID, len(ids))
		for i, id := range ids {
			roots[i] = xdm.NodeID{Frag: id, Pre: 0}
		}
		t := NewTable([]string{"item"})
		t.Data[0] = xdm.NodeColumn(roots)
		return t, nil

	case algebra.OpElem:
		return ex.evalElem(n, ins)

	case algebra.OpRange:
		return ex.evalRange(n, ins[0])

	case algebra.OpCheckCard:
		return ex.evalCheckCard(n, ins)

	default:
		return nil, ex.errf(n, "unimplemented operator")
	}
}

// evalFilter filters by a boolean column: a flat 0/1 scan on typed
// columns, per-item kind checks on the boxed fallback.
func (ex *Exec) evalFilter(n *algebra.Node, in *Table) (*Table, error) {
	cond := in.Col(n.Col)
	rows := cond.Len()
	buf := xdm.GetInt32s(rows)
	keep := buf[:0]
	if bs, ok := cond.Bools(); ok {
		for r, v := range bs {
			if v != 0 {
				keep = append(keep, int32(r))
			}
		}
	} else if items, ok := cond.RawItems(); ok {
		for r, it := range items {
			if it.Kind != xdm.KBoolean {
				xdm.PutInt32s(buf)
				return nil, ex.errf(n, "selection over non-boolean %s", it.Kind)
			}
			if it.I != 0 {
				keep = append(keep, int32(r))
			}
		}
	} else if rows > 0 {
		xdm.PutInt32s(buf)
		return nil, ex.errf(n, "selection over non-boolean %s", cond.Get(0).Kind)
	}
	out := in.Filter(keep)
	xdm.PutInt32s(buf)
	return out, nil
}

// --- Joins and products ---

// materializeJoin builds the join output table from row-pair
// permutations via typed gathers, polling for cancellation between
// column chunks — a multi-million-row join output is otherwise a
// cancellation blind spot.
func (ex *Exec) materializeJoin(n *algebra.Node, l, r *Table, lperm, rperm []int32) (*Table, error) {
	t := NewTable(n.Schema())
	for c, name := range l.Cols {
		col, err := l.Col(name).GatherChunked(lperm, probeChunk, ex.CheckCancel)
		if err != nil {
			return nil, err
		}
		t.Data[c] = col
	}
	off := len(l.Cols)
	for c, name := range r.Cols {
		col, err := r.Col(name).GatherChunked(rperm, probeChunk, ex.CheckCancel)
		if err != nil {
			return nil, err
		}
		t.Data[off+c] = col
	}
	return t, nil
}

// probeChunk bounds the rows a kernel processes between cancellation and
// budget polls, keeping cancellation latency low even when a single
// operator is the whole query.
const probeChunk = 1 << 15

// probeJoin probes every left key in lk against ix and returns the
// matching (left, right) row pairs. The rows probed between cancellation and
// budget polls are sized by the index's fan-out, so that about probeChunk
// pairs are emitted per poll whether each left row matches one right row
// or thousands. width is the join output's column count.
func (ex *Exec) probeJoin(ix *JoinIndex, lk *xdm.Column, width int) (lperm, rperm []int32, err error) {
	step := max(probeChunk/ix.fanout, 1)
	for lo, hi := 0, lk.Len(); lo < hi; lo += step {
		lperm, rperm = ix.Probe(lk, lo, min(lo+step, hi), lperm, rperm)
		if err := ex.checkCells(len(lperm), width); err != nil {
			xdm.PutInt32s(lperm)
			xdm.PutInt32s(rperm)
			return nil, nil, err
		}
	}
	return lperm, rperm, nil
}

func (ex *Exec) evalJoin(n *algebra.Node, l, r *Table) (*Table, error) {
	lk, rk := l.Col(n.LCol), r.Col(n.RCol)
	width := len(l.Cols) + len(r.Cols)
	var lperm, rperm []int32
	if n.Mode != algebra.JoinEqui {
		var err error
		if lperm, rperm, err = ex.thetaJoin(n, lk, rk, width); err != nil {
			return nil, err
		}
	} else {
		ix, err := buildJoinIndex(rk, ex.CheckCancel)
		if err != nil {
			return nil, err
		}
		lperm, rperm, err = ex.probeJoin(ix, lk, width)
		ix.Release()
		if err != nil {
			return nil, err
		}
	}
	t, err := ex.materializeJoin(n, l, r, lperm, rperm)
	if err != nil {
		return nil, err
	}
	xdm.PutInt32s(lperm)
	xdm.PutInt32s(rperm)
	return t, nil
}

func (ex *Exec) evalCross(n *algebra.Node, l, r *Table) (*Table, error) {
	ln, rn := l.NumRows(), r.NumRows()
	if ln > 1 && rn > 1 {
		if err := ex.checkCells(ln*rn, len(l.Cols)+len(r.Cols)); err != nil {
			return nil, err
		}
	}
	t := NewTable(n.Schema())
	switch {
	case rn == 1:
		for c := range l.Cols {
			t.Data[c] = l.Data[c]
		}
		off := len(l.Cols)
		for c := range r.Cols {
			t.Data[off+c] = xdm.RepeatOf(r.Data[c], 0, ln)
		}
	case ln == 1:
		for c := range l.Cols {
			t.Data[c] = xdm.RepeatOf(l.Data[c], 0, rn)
		}
		off := len(l.Cols)
		for c := range r.Cols {
			t.Data[off+c] = r.Data[c]
		}
	default:
		total := ln * rn
		// Poll for cancellation roughly every probeChunk emitted rows; a
		// large cross product is otherwise a multi-second blind spot.
		stride := probeChunk/rn + 1
		lperm := xdm.GetInt32s(total)
		rperm := xdm.GetInt32s(total)
		k := 0
		for i := 0; i < ln; i++ {
			if i%stride == 0 {
				if err := ex.CheckCancel(); err != nil {
					xdm.PutInt32s(lperm)
					xdm.PutInt32s(rperm)
					return nil, err
				}
			}
			for j := 0; j < rn; j++ {
				lperm[k] = int32(i)
				rperm[k] = int32(j)
				k++
			}
		}
		for c := range l.Cols {
			col, err := l.Data[c].GatherChunked(lperm, probeChunk, ex.CheckCancel)
			if err != nil {
				return nil, err
			}
			t.Data[c] = col
		}
		off := len(l.Cols)
		for c := range r.Cols {
			col, err := r.Data[c].GatherChunked(rperm, probeChunk, ex.CheckCancel)
			if err != nil {
				return nil, err
			}
			t.Data[off+c] = col
		}
		xdm.PutInt32s(lperm)
		xdm.PutInt32s(rperm)
	}
	return t, nil
}

// --- Distinct and semijoin: one key path ---

// exactInt bounds the integers whose double projection is exact: within
// it, raw integers key under xdm.DistinctKey's equivalence.
const exactInt = 1 << 53

// keyRows keys the rows of one or more tables — tabs[t] holds table t's
// key columns, at least one and the same number per table — as one int64
// per row, in one key space across the tables: two rows get equal keys
// exactly when their cells are pairwise xdm.DistinctKey-equal (5 = 5.0,
// NaN = NaN, -0 ≠ +0, string = untypedAtomic, boolean ≠ integer). Each
// column position is keyed across all tables by colKeys, and the
// positions fold into one key by packKeys. owned reports whether the keys
// are pooled buffers rather than column storage; hand them to releaseKeys.
func (ex *Exec) keyRows(tabs [][]*xdm.Column) (keys [][]int64, owned bool, err error) {
	keys, owned, err = ex.colKeys(tabs, 0)
	for c := 1; err == nil && c < len(tabs[0]); c++ {
		next, nextOwned, cerr := ex.colKeys(tabs, c)
		var packed [][]int64
		if err = cerr; err == nil {
			packed, err = ex.packKeys(keys, next)
		}
		releaseKeys(next, nextOwned)
		releaseKeys(keys, owned)
		keys, owned = packed, true
	}
	return keys, owned, err
}

// colKeys keys column position c across all tables:
//   - ColInt within ±exactInt in every table: the raw integers, not
//     copied — the compiled plans' iter ids, almost all the traffic;
//   - ColNode in every table: nodeKey;
//   - anything else: the dense group ids of the cells' string keys — the
//     raw strings when the column is string-class in every table, else
//     xdm.DistinctKey of every cell, whose class prefix keeps the string
//     "n5" apart from the integer 5.
func (ex *Exec) colKeys(tabs [][]*xdm.Column, c int) ([][]int64, bool, error) {
	ints, nodes, strs := true, true, true
	for _, cols := range tabs {
		v, ok := cols[c].Ints()
		ints = ints && ok && exactInts(v)
		k := cols[c].Kind()
		nodes = nodes && k == xdm.ColNode
		strs = strs && (k == xdm.ColString || k == xdm.ColUntyped)
	}
	keys := make([][]int64, len(tabs))
	switch {
	case ints:
		for t, cols := range tabs {
			keys[t], _ = cols[c].Ints()
		}
		return keys, false, nil
	case nodes:
		for t, cols := range tabs {
			ns, _ := cols[c].Nodes()
			keys[t] = xdm.GetInts(len(ns))
			for r, id := range ns {
				keys[t][r] = nodeKey(id)
			}
		}
		return keys, true, nil
	}
	parts := make([][]string, len(tabs))
	for t, cols := range tabs {
		if strs {
			parts[t], _, _ = cols[c].Strings()
			continue
		}
		parts[t] = make([]string, cols[c].Len())
		for r := range parts[t] {
			parts[t][r] = xdm.DistinctKey(cols[c].Get(r))
		}
	}
	ix, err := groupStrings(ex.CheckCancel, parts...)
	if err != nil {
		return nil, false, err
	}
	return idKeys(ix, parts), true, nil
}

func exactInts(v []int64) bool {
	for _, x := range v {
		if x < -exactInt || x > exactInt {
			return false
		}
	}
	return true
}

// packKeys folds two key vectors into one, injectively and in one key
// space across the tables: (a-loₐ)·w + (b-lo_b), w the width of b's
// range. When that would overflow, both are first regrouped to dense ids:
// those lie below the row count, so their product fits.
func (ex *Exec) packKeys(a, b [][]int64) ([][]int64, error) {
	loA, sa := keySpan(a)
	loB, sb := keySpan(b)
	if hi, lo := bits.Mul64(sa+1, sb+1); sa >= math.MaxInt64 || sb >= math.MaxInt64 || hi != 0 || lo > math.MaxInt64 {
		da, err := ex.denseKeys(a)
		if err != nil {
			return nil, err
		}
		defer releaseKeys(da, true)
		db, err := ex.denseKeys(b)
		if err != nil {
			return nil, err
		}
		defer releaseKeys(db, true)
		a, b = da, db
		loA, _ = keySpan(a)
		loB, sb = keySpan(b)
	}
	out := make([][]int64, len(a))
	for t := range a {
		k := xdm.GetInts(len(a[t]))
		for r, x := range a[t] {
			k[r] = int64((uint64(x)-uint64(loA))*(sb+1) + uint64(b[t][r]) - uint64(loB))
		}
		out[t] = k
	}
	return out, nil
}

// keySpan returns the least key across the tables and the distance to the
// greatest, as an unsigned difference that stays exact where hi-lo would
// overflow.
func keySpan(keys [][]int64) (lo int64, span uint64) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, k := range keys {
		for _, x := range k {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, uint64(hi) - uint64(lo)
}

// denseKeys regroups keys to the group ids of one index over every
// table's keys.
func (ex *Exec) denseKeys(keys [][]int64) ([][]int64, error) {
	n := 0
	for _, k := range keys {
		n += len(k)
	}
	all := xdm.GetInts(n)[:0]
	for _, k := range keys {
		all = append(all, k...)
	}
	ix, err := groupInts(all, ex.CheckCancel)
	xdm.PutInts(all)
	if err != nil {
		return nil, err
	}
	return idKeys(ix, keys), nil
}

// idKeys splits a group index over the parts' rows, numbered across the
// parts in order, into one pooled slice of group ids per part, and
// releases the index.
func idKeys[T any](ix *groupIndex, parts [][]T) [][]int64 {
	keys := make([][]int64, len(parts))
	ids := ix.ids
	for t, p := range parts {
		k := xdm.GetInts(len(p))
		for r := range k {
			k[r] = int64(ids[r])
		}
		ids = ids[len(p):]
		keys[t] = k
	}
	ix.release()
	return keys
}

// releaseKeys hands owned keys back to the pool.
func releaseKeys(keys [][]int64, owned bool) {
	if owned {
		for _, k := range keys {
			xdm.PutInts(k)
		}
	}
}

// evalDistinct deduplicates rows over n.Cols, keeping the first row of
// every group of keyRows-equal rows.
func (ex *Exec) evalDistinct(n *algebra.Node, in *Table) (*Table, error) {
	cols := make([]*xdm.Column, len(n.Cols))
	for i, c := range n.Cols {
		cols[i] = in.Col(c)
	}
	keys, owned, err := ex.keyRows([][]*xdm.Column{cols})
	if err != nil {
		return nil, err
	}
	ix, err := groupInts(keys[0], ex.CheckCancel)
	releaseKeys(keys, owned)
	if err != nil {
		return nil, err
	}
	defer ix.release()
	// Groups are numbered in order of first occurrence: a row opens a new
	// group exactly when its group is the next number.
	keep := xdm.GetInt32s(ix.groups)[:0]
	defer xdm.PutInt32s(keep)
	for r, g := range ix.ids {
		if int(g) == len(keep) {
			keep = append(keep, int32(r))
		}
	}
	t := NewTable(n.Cols)
	for i := range cols {
		t.Data[i] = cols[i].Gather(keep)
	}
	return t, nil
}

// evalSemiDiff keeps the left rows whose keyRows key is (semijoin) or is
// not (difference) among the right rows' keys.
func (ex *Exec) evalSemiDiff(n *algebra.Node, l, r *Table) (*Table, error) {
	lcols := make([]*xdm.Column, len(n.Cols))
	rcols := make([]*xdm.Column, len(n.Cols))
	for i, c := range n.Cols {
		lcols[i], rcols[i] = l.Col(c), r.Col(c)
	}
	keys, owned, err := ex.keyRows([][]*xdm.Column{lcols, rcols})
	if err != nil {
		return nil, err
	}
	defer releaseKeys(keys, owned)
	ix, err := groupInts(keys[1], ex.CheckCancel)
	if err != nil {
		return nil, err
	}
	defer ix.release()
	want := n.Kind == algebra.OpSemi
	keep := xdm.GetInt32s(len(keys[0]))[:0]
	defer xdm.PutInt32s(keep)
	for i, k := range keys[0] {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				return nil, err
			}
		}
		if (ix.lookupInt(k) >= 0) == want {
			keep = append(keep, int32(i))
		}
	}
	return l.Filter(keep), nil
}

// --- Row numbering: the ρ/# cost asymmetry ---

// evalRowNum implements ρ: a stable sort of the full table by
// (part, sort criteria) followed by dense per-group numbering. The
// physical reordering is deliberate — it is the blocking sort whose
// elimination the whole paper is about. Input that already arrives in
// the required order (common after steps, whose staircase join emits
// document order) is found by sortByKeys' scan and not permuted.
func (ex *Exec) evalRowNum(n *algebra.Node, in *Table) (*Table, error) {
	rows := in.NumRows()
	keys := make([][]int64, 0, len(n.Sort)+1)
	if n.Part != "" {
		keys = append(keys, orderKey(in.Col(n.Part), false, false))
	}
	for _, s := range n.Sort {
		keys = append(keys, orderKey(in.Col(s.Col), s.Desc, s.EmptyGreatest))
	}
	defer func() {
		for _, k := range keys {
			xdm.PutInts(k)
		}
	}()
	perm, moved, err := sortByKeys(rows, keys, ex.CheckCancel)
	defer xdm.PutInt32s(perm)
	if err != nil {
		return nil, err
	}
	out := in
	if moved {
		out = in.Filter(perm)
	}
	// Numbering restarts where the partition key changes.
	num := xdm.GetInts(rows)
	for i := range num {
		num[i] = 1
		if i > 0 && (n.Part == "" || keys[0][perm[i-1]] == keys[0][perm[i]]) {
			num[i] = num[i-1] + 1
		}
	}
	return out.WithColumn(n.Res, xdm.IntColumn(num)), nil
}

// allIntegers reports whether every item in the column is an xs:integer.
func allIntegers(col []xdm.Item) bool {
	for _, it := range col {
		if it.Kind != xdm.KInteger {
			return false
		}
	}
	return true
}

// compareSortItems orders items for ρ and for result serialization: the
// Null marker sorts below everything (or above, with emptyGreatest); all
// other items follow the xdm total order.
func compareSortItems(a, b xdm.Item, emptyGreatest bool) int {
	an, bn := a.Kind == xdm.KNull, b.Kind == xdm.KNull
	switch {
	case an && bn:
		return 0
	case an:
		if emptyGreatest {
			return 1
		}
		return -1
	case bn:
		if emptyGreatest {
			return -1
		}
		return 1
	default:
		return xdm.OrderCompare(a, b)
	}
}
