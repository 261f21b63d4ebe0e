// Package vm executes bytecode-compiled plans: the optimized algebra DAG
// flattened (once, at Prepare time) into a linear register program that
// a cached Prepared carries across executions, so a warm plan-cache hit
// runs without re-walking — or re-deriving — anything.
//
// The split mirrors the classic bytecode-vs-tree-walking interpreter
// divide: the tree-walking engine (internal/engine) re-traverses the DAG
// and re-resolves column names on every run, while the VM resolves
// registers, column positions, buffer release points and document
// parameter slots at compile time and leaves only the kernels for run
// time. Both evaluate operators in the same deterministic order
// (algebra.Nodes order) over the same kernels, which keeps results
// byte-identical — the differential suite pins this.
//
// Everything the serving layers hook into is preserved: the executor
// polls the same budget/cancel/heartbeat points (engine.Exec), feeds the
// same per-plan-node statistics collector (so EXPLAIN ANALYZE joins
// compiled runs back to plan #ids), and brackets
// Par-marked operators with a fork/join instruction pair that hands
// morsel ranges to internal/parallel — order indifference licenses the
// parallel run, the join's deterministic serial merge keeps the bytes.
package vm

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// Options configures one execution of a compiled program. The embedded
// engine.Options carry the budget/cancel/heartbeat/observability hooks;
// Workers > 1 arms the fork/join instructions with a morsel pool (a
// degraded governor admission passes 1 to force the serial fallback).
type Options struct {
	engine.Options
	Workers       int
	MinMorselRows int
}

// frame is the per-execution state of a program: the register file, the
// column reference counts driving buffer recycling, the bound document
// slots, and the fork→join scratch. Frames are pooled per program; a
// frame never outlives its execution.
type frame struct {
	regs    []*engine.Table
	colRefs map[*xdm.Column]int
	docIDs  [][]uint32
	docOK   []bool
	scratch []*engine.Table

	// fork→join hand-off (instructions are adjacent, so one slot).
	pendT       *engine.Table
	pendBusy    time.Duration
	pendCharged bool
	pendStart   time.Time
	pendSpan    func()
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

// Run executes a compiled program. It is the VM counterpart of
// engine.Run/parallel.Run: docs maps fn:doc() URIs to fragment ids in
// base (the program's document slots bind here, per execution — not at
// compile time, which is what makes cached programs safe across
// document reloads), constructed fragments go to a derived store. Run
// never panics: invariant violations surface as qerr.ErrInternal.
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
	t, err := p.exec(ex, docs, opts)
	if err != nil {
		return nil, err
	}
	res = ex.Finish(t, start)
	obs.QueryNanos.Observe(res.Elapsed.Nanoseconds())
	return res, nil
}

// exec runs the instruction loop. The per-instruction bookkeeping —
// deadline poll, tracer span, profile record, stats collection, cell
// charge, buffer release — replays exactly what engine.Eval (serial) and
// the parallel executor (fork/join) do per node, so budgets, EXPLAIN
// ANALYZE and profiles are indistinguishable between walked and compiled
// runs.
func (p *Program) exec(ex *engine.Exec, docs map[string][]uint32, opts Options) (*engine.Table, error) {
	f := p.frames.Get().(*frame)
	defer p.putFrame(f)
	for i, uri := range p.docs {
		f.docIDs[i], f.docOK[i] = docs[uri]
	}
	for ii := range p.instrs {
		ins := &p.instrs[ii]
		switch ins.op {
		case opParFork:
			if err := ex.CheckDeadline(); err != nil {
				return nil, err
			}
			tables := f.inputs(ins)
			f.pendSpan = ex.StartOpSpan(ins.node)
			f.pendStart = time.Now()
			var t *engine.Table
			var busy time.Duration
			charged := false
			if opts.Workers > 1 {
				pt, pbusy, pcharged, ok, err := parallel.EvalParOp(ex, opts.Workers, opts.MinMorselRows, ins.node, tables)
				if err != nil {
					return nil, err
				}
				if ok {
					t, busy, charged = pt, pbusy, pcharged
				}
			}
			if t == nil {
				var err error
				t, err = p.runKernel(ex, f, ins, tables)
				if err != nil {
					return nil, err
				}
			}
			f.pendT, f.pendBusy, f.pendCharged = t, busy, charged

		case opParJoin:
			t := f.pendT
			f.pendT = nil
			if f.pendSpan != nil {
				f.pendSpan()
				f.pendSpan = nil
			}
			// Attribute summed per-worker busy time when it exceeds wall
			// time, exactly like the parallel executor's merge side.
			wall := time.Since(f.pendStart)
			d := wall
			if f.pendBusy > d {
				d = f.pendBusy
			}
			ex.Record(ins.node, d, t.NumRows())
			ex.CollectOp(ins.node, wall, f.inputs(ins), t)
			if !f.pendCharged {
				if err := ex.ChargeCells(int64(t.NumRows()) * int64(len(t.Cols))); err != nil {
					return nil, err
				}
			}
			f.store(ins, t, ex)

		default:
			if err := ex.CheckDeadline(); err != nil {
				return nil, err
			}
			tables := f.inputs(ins)
			start := time.Now()
			endSpan := ex.StartOpSpan(ins.node)
			t, err := p.runKernel(ex, f, ins, tables)
			if endSpan != nil {
				endSpan()
			}
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			ex.Record(ins.node, d, t.NumRows())
			ex.CollectOp(ins.node, d, tables, t)
			if err := ex.ChargeCells(int64(t.NumRows()) * int64(len(t.Cols))); err != nil {
				return nil, err
			}
			f.store(ins, t, ex)
		}
	}
	return f.regs[p.instrs[len(p.instrs)-1].dst], nil
}

// store writes the output table to its register, takes column references
// (before releasing inputs, so aliased columns survive), then frees the
// registers whose last consumer this instruction was — the compile-time
// replacement for the walked engine's Memoize+ReleaseInputs counting. It
// also replays the memo hits the walked engine would have recorded for
// the node's additional consumers, keeping stats comparable.
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

// runKernel evaluates one serial kernel. The specialized opcodes are the
// type-aware fast paths with columns resolved positionally at compile
// time; opGeneric delegates to the engine's EvalOp (which runs the same
// typed kernels, after name resolution). The fault-injection hook fires
// on every kernel either way.
func (p *Program) runKernel(ex *engine.Exec, f *frame, ins *instr, ts []*engine.Table) (*engine.Table, error) {
	n := ins.node
	if ins.kernel == opGeneric {
		return ex.EvalOp(n, ts) // EvalOp runs EvalHook itself
	}
	if engine.EvalHook != nil {
		engine.EvalHook(n)
	}
	switch ins.kernel {
	case opLit:
		t := ins.lit
		// Pin: the program owns these buffers across executions; the
		// extra reference keeps release from recycling them into the
		// pool, where a later run would scribble over the cached plan.
		for _, c := range t.Data {
			f.colRefs[c]++
		}
		return t, nil

	case opProject:
		in := ts[0]
		data := make([]*xdm.Column, len(ins.cols))
		for i, ci := range ins.cols {
			data[i] = in.Data[ci]
		}
		return engine.NewTableFromCols(n.Schema(), data), nil

	case opSelect:
		return evalSelect(ex, n, ts[0], ins.cols[0])

	case opRowID:
		in := ts[0]
		num := xdm.GetInts(in.NumRows())
		for i := range num {
			num[i] = int64(i + 1)
		}
		return in.WithColumn(n.Col, xdm.IntColumn(num)), nil

	case opUnion:
		l, r := ts[0], ts[1]
		data := make([]*xdm.Column, len(l.Cols))
		for c := range l.Cols {
			var b xdm.ColumnBuilder
			b.AppendColumn(l.Data[c])
			b.AppendColumn(r.Data[ins.cols[c]])
			data[c] = b.Finish()
		}
		return engine.NewTableFromCols(l.Cols, data), nil

	case opDoc:
		if !f.docOK[ins.slot] {
			return nil, ex.Errf(n, "unknown document %q", n.URI)
		}
		ids := f.docIDs[ins.slot]
		roots := make([]xdm.NodeID, len(ids))
		for i, id := range ids {
			roots[i] = xdm.NodeID{Frag: id, Pre: 0}
		}
		col := xdm.NodeColumn(roots)
		return engine.NewTableFromCols(n.Schema(), []*xdm.Column{col}), nil
	}
	return nil, ex.Errf(n, "vm: unimplemented opcode")
}

// evalSelect mirrors the engine's select kernel byte for byte (flat 0/1
// scan on typed condition columns, per-item kind checks on the boxed
// fallback, identical error text), with the condition column position
// pre-resolved.
func evalSelect(ex *engine.Exec, n *algebra.Node, in *engine.Table, ci int) (*engine.Table, error) {
	cond := in.Data[ci]
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
				return nil, ex.Errf(n, "selection over non-boolean %s", it.Kind)
			}
			if it.I != 0 {
				keep = append(keep, int32(r))
			}
		}
	} else if rows > 0 {
		xdm.PutInt32s(buf)
		return nil, ex.Errf(n, "selection over non-boolean %s", cond.Get(0).Kind)
	}
	out := in.Filter(keep)
	xdm.PutInt32s(buf)
	return out, nil
}

// putFrame clears an execution's state (on success and error paths
// alike — an error may leave any subset of registers live, which the GC
// reclaims; recycling them into the pool would be unsound since the
// error may have published aliases) and returns the frame to the pool.
func (p *Program) putFrame(f *frame) {
	clear(f.regs)
	clear(f.colRefs)
	f.pendT = nil
	f.pendSpan = nil
	p.frames.Put(f)
}
