// Package vm is the executor: it flattens an optimized algebra DAG into a
// linear program — one instruction per plan node, in algebra.Nodes order,
// with registers and buffer release points resolved once — and runs that
// program in the one loop every execution goes through, serial or
// parallel, flattened at Prepare time (what the daemon's plan cache
// reuses) or at Run time.
//
// The loop owns everything that happens once per operator: the
// cancel/heartbeat poll, the tracer span, the profile record, the
// per-plan-node statistics (so EXPLAIN ANALYZE joins runs back to plan
// #ids), the cell charge and the buffer release. The operators themselves
// are the kernels of internal/engine; a Par-marked operator — a staircase
// step or an equi-join, the only kinds opt.MarkParallel marks — is first
// offered to the morsel pool of internal/parallel: order indifference
// licenses the parallel run, the pool's deterministic serial merge keeps
// the bytes.
package vm

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// Options configures one execution of a program. The embedded
// engine.Options carry the budget/cancel/heartbeat/observability hooks;
// Workers > 1 offers Par-marked steps and equi-joins to a morsel pool of
// that size (a degraded governor admission passes 1 to keep the run
// serial), and MinMorselRows is the pool's smallest per-morsel work unit
// (zero means the default).
type Options struct {
	engine.Options
	Workers       int
	MinMorselRows int
}

// frame is the per-execution state of a program: the register file and
// the column reference counts driving buffer recycling. Frames are pooled
// per program; a frame never outlives its execution.
type frame struct {
	regs    []*engine.Table
	colRefs map[*xdm.Column]int
	scratch []*engine.Table
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
	start := time.Now()
	t, err := p.exec(ex, opts.Workers, opts.MinMorselRows)
	if err != nil {
		return nil, err
	}
	res = ex.Finish(t, start)
	obs.QueryNanos.Observe(res.Elapsed.Nanoseconds())
	return res, nil
}

// exec is the executor loop.
func (p *Program) exec(ex *engine.Exec, workers, minMorselRows int) (*engine.Table, error) {
	f := p.frames.Get().(*frame)
	defer p.putFrame(f)
	for ii := range p.instrs {
		ins := &p.instrs[ii]
		n := ins.node
		if err := ex.CheckCancel(); err != nil {
			return nil, err
		}
		tables := f.inputs(ins)
		endSpan := ex.StartOpSpan(n)
		start := time.Now()
		var (
			t       *engine.Table
			busy    time.Duration
			charged bool
			err     error
		)
		if n.Par && workers > 1 {
			t, busy, charged, err = parallel.EvalParOp(ex, workers, minMorselRows, n, tables)
		}
		if t == nil && err == nil {
			t, err = ex.EvalOp(n, tables)
		}
		// Close the span before looking at the error: tracers write an
		// event on close, and the operator that failed is the one a trace
		// reader is looking for.
		if endSpan != nil {
			endSpan()
		}
		if err != nil {
			return nil, err
		}
		// Attribute the summed per-worker busy time when it exceeds wall
		// time (it does, on a multicore pool): the profile then reports
		// work performed per origin, comparable to serial runs.
		wall := time.Since(start)
		ex.Record(n, max(wall, busy), t.NumRows())
		ex.CollectOp(n, wall, tables, t)
		if !charged {
			if err := ex.ChargeCells(int64(t.NumRows()) * int64(len(t.Cols))); err != nil {
				return nil, err
			}
		}
		f.store(ins, t, ex)
	}
	return f.regs[len(p.instrs)-1], nil
}

// store writes the output table to its register, takes column references
// (before releasing inputs, so aliased columns survive), then frees the
// registers whose last consumer this instruction was: a column at zero
// references provably has no surviving alias and its backing buffer
// returns to the xdm pool. It also reports the node's consumers beyond
// the first to the stats collector (EXPLAIN ANALYZE's memo count).
func (f *frame) store(ins *instr, t *engine.Table, ex *engine.Exec) {
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
	for k := 0; k < ins.extraUses; k++ {
		ex.CollectMemoHit(ins.node)
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
