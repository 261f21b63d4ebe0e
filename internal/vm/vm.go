// Package vm is the executor: it flattens an optimized algebra DAG into a
// linear program — one instruction per plan node, in algebra.Nodes order,
// with registers and buffer release points resolved once — and runs that
// program in the one loop every execution goes through, flattened at
// Prepare time (what the daemon's plan cache reuses) or at Run time.
//
// The loop owns everything that happens once per operator: the
// cancel/heartbeat poll, the tracer span, the operator's record (one
// obs.OpRecord per instruction, written once: the profile rolls the
// records up by origin, EXPLAIN ANALYZE reads them by plan #id), the
// cell charge and the buffer release. The operators themselves
// are the kernels of internal/engine.
package vm

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// Options configures one execution of a program. The embedded
// engine.Options carry the budget/cancel/heartbeat/observability hooks.
// Collect attaches the operator records to the Result as an obs.RunStats
// (the profile is built from them either way).
type Options struct {
	engine.Options
	Collect bool
}

// frame is the per-execution state of a program: the register file, the
// column reference counts driving buffer recycling, and one operator
// record per instruction. Frames are pooled per program; a frame never
// outlives its execution.
type frame struct {
	regs    []*engine.Table
	colRefs map[*xdm.Column]int
	scratch []*engine.Table
	ops     []obs.OpRecord
}

// inputs gathers the source registers into the frame's scratch slice
// (valid until the next call — kernels read, never retain).
func (f *frame) inputs(ins *instr) []*engine.Table {
	if cap(f.scratch) < len(ins.srcs) {
		f.scratch = make([]*engine.Table, len(ins.srcs))
	}
	s := f.scratch[:len(ins.srcs)]
	for i, r := range ins.srcs {
		s[i] = f.regs[r]
	}
	return s
}

// Run executes a program. docs maps fn:doc() URIs to fragment ids in
// base — one id for an ordinary document, several for a sharded corpus
// (internal/store), whose parts fn:doc() returns as one root sequence in
// part order. Documents bind here, per execution, not at Compile time,
// which is what makes a cached program safe across document reloads;
// constructed fragments go to a derived store. Run never panics:
// invariant violations surface as qerr.ErrInternal.
func Run(p *Program, base *xmltree.Store, docs map[string][]uint32, opts Options) (res *engine.Result, err error) {
	defer qerr.RecoverInto("execute", &err)
	defer func() {
		obs.QueriesTotal.Inc()
		if err != nil {
			obs.QueryErrorsTotal.Inc()
		}
	}()
	ex := engine.NewExec(base, docs, opts.Options)
	var hits0, misses0 int64
	if opts.Collect {
		hits0, misses0 = xdm.PoolStats()
	}
	f := p.frames.Get().(*frame)
	defer p.putFrame(f)
	start := time.Now()
	t, err := p.exec(f, ex)
	if err != nil {
		return nil, err
	}
	res = ex.Finish(t, start)
	res.Profile = obs.RollUp(f.ops, p.originOf, p.origins)
	obs.MemoHitsTotal.Add(p.memoHits)
	if opts.Collect {
		res.Stats = p.runStats(f.ops, res.Elapsed, hits0, misses0)
	}
	obs.QueryNanos.Observe(res.Elapsed.Nanoseconds())
	return res, nil
}

// exec is the executor loop.
func (p *Program) exec(f *frame, ex *engine.Exec) (*engine.Table, error) {
	// Close the open span on every way out, a kernel panic included:
	// tracers write an event on close, and the operator that failed is the
	// one a trace reader is looking for.
	var endSpan func()
	defer func() {
		if endSpan != nil {
			endSpan()
		}
	}()
	for ii := range p.instrs {
		ins := &p.instrs[ii]
		n := ins.node
		if err := ex.CheckCancel(); err != nil {
			return nil, err
		}
		tables := f.inputs(ins)
		endSpan = ex.StartOpSpan(n)
		start := time.Now()
		t, err := ex.EvalOp(n, tables)
		if endSpan != nil {
			endSpan()
			endSpan = nil
		}
		if err != nil {
			return nil, err
		}
		rows := int64(t.NumRows())
		rec := &f.ops[ii]
		*rec = obs.OpRecord{Wall: time.Since(start), RowsOut: rows, Cells: rows * int64(len(t.Cols))}
		for _, in := range tables {
			rec.RowsIn += int64(in.NumRows())
		}
		if err := ex.ChargeCells(rec.Cells); err != nil {
			return nil, err
		}
		f.store(ins, t)
	}
	return f.regs[len(p.instrs)-1], nil
}

// runStats builds a RunStats from the operator records and their plan
// nodes' static fields, in ascending node id, with the buffer-pool deltas
// since the run began.
func (p *Program) runStats(ops []obs.OpRecord, elapsed time.Duration, hits0, misses0 int64) *obs.RunStats {
	hits, misses := xdm.PoolStats()
	st := &obs.RunStats{Ops: make([]obs.OpStats, len(ops)), Elapsed: elapsed, MemoHits: p.memoHits,
		PoolHits: hits - hits0, PoolMisses: misses - misses0}
	for i, rec := range ops {
		n := p.instrs[i].node
		st.Ops[i] = obs.OpStats{Node: n.ID, Kind: n.Kind.String(), Label: algebra.Label(n), Origin: n.Origin,
			Calls: 1, MemoHits: int64(p.instrs[i].extraUses), OpRecord: rec}
	}
	slices.SortFunc(st.Ops, func(a, b obs.OpStats) int { return cmp.Compare(a.Node, b.Node) })
	return st
}

// store writes the output table to its register, takes column references
// (before releasing inputs, so aliased columns survive), then frees the
// registers whose last consumer this instruction was: a column at zero
// references provably has no surviving alias and its backing buffer
// returns to the xdm pool.
func (f *frame) store(ins *instr, t *engine.Table) {
	f.regs[ins.dst] = t
	for _, c := range t.Data {
		f.colRefs[c]++
	}
	for _, r := range ins.release {
		rt := f.regs[r]
		f.regs[r] = nil
		for _, c := range rt.Data {
			k := f.colRefs[c] - 1
			if k > 0 {
				f.colRefs[c] = k
				continue
			}
			delete(f.colRefs, c)
			xdm.RecycleColumn(c)
		}
	}
}

// putFrame clears an execution's state (on success and error paths
// alike — an error may leave any subset of registers live, which the GC
// reclaims; recycling them into the pool would be unsound since the
// error may have published aliases) and returns the frame to the pool.
func (p *Program) putFrame(f *frame) {
	clear(f.regs)
	clear(f.colRefs)
	p.frames.Put(f)
}
