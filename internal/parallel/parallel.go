// Package parallel holds the morsel-wise operator kernels. It runs the
// two operators that partition — the staircase step and the equi-join —
// when their output row order is provably unobservable (algebra.Node.Par,
// which opt.MarkParallel sets from the order-indifference analysis of
// internal/opt on those two kinds only): the work is split into morsels
// and evaluated across a bounded worker pool. The executor loop
// (internal/vm) offers each Par-marked operator to EvalParOp; every other
// operator — and these two below the morsel threshold — takes the serial
// engine kernel, so a plan with no order-dead regions runs exactly as
// before.
//
// Although the analysis licenses arbitrary interleavings, every parallel
// operator here merges its morsels in deterministic (morsel-index)
// order, which is the serial scan order. Parallel results are therefore
// byte-identical to serial results even for order-sensitive plans; the
// Par flag decides where parallelism engages, determinism is never at
// stake.
//
// The time and memory cutoffs are enforced cooperatively: all workers
// share the engine's atomic cell budget and context, checking between
// morsels and (for the big descendant scans) charging produced cells as
// they go, so an overrun aborts the whole pool at the next morsel
// boundary.
package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

const (
	defaultMinMorselRows = 256
	// morselsPerWorker over-partitions the work so that morsels of uneven
	// cost still balance across the pool.
	morselsPerWorker = 4
)

// executor is one operator's morsel pool: the execution whose budgets the
// workers share, the pool size, and the smallest per-morsel work unit
// (probe rows for the equi-join; parStep scales it to contexts or
// preorder slots).
type executor struct {
	ex      *engine.Exec
	workers int
	minRows int
}

// EvalParOp evaluates one Par-marked step or equi-join morsel-wise over
// already-evaluated inputs, on a pool of workers goroutines. A nil table
// (with a nil error) means the operator or its input size is not worth
// partitioning and the caller should run the serial kernel instead.
// minMorselRows is the smallest per-morsel work unit; zero means the
// default (256). split is the per-worker morsel count and busy time of
// the workers that ran a morsel, in worker order (the executor loop
// stores it in the operator's record), and charged reports whether the
// workers already charged the output cells against the shared budget.
// A panic inside a worker is recovered there and returned as an error
// (see runTasks), so a poisoned morsel kernel fails the query instead of
// killing the process.
func EvalParOp(ex *engine.Exec, workers, minMorselRows int, n *algebra.Node, ins []*engine.Table) (t *engine.Table, split []obs.WorkerStats, charged bool, err error) {
	e := &executor{ex: ex, workers: workers, minRows: minMorselRows}
	if e.minRows <= 0 {
		e.minRows = defaultMinMorselRows
	}
	switch n.Kind {
	case algebra.OpStep:
		return e.parStep(n, ins[0])
	case algebra.OpJoin:
		t, split, err := e.parJoin(n, ins[0], ins[1])
		return t, split, false, err
	}
	return nil, nil, false, nil
}

// runTasks drains n's morsel tasks over up to e.workers goroutines
// (atomic index pull, so uneven morsels balance). Workers poll the
// shared context between tasks and stop after the first error. Each
// worker counts its morsels and their time in its own slot of the
// returned split, which drops the workers that ran none; when tracing is
// on each morsel emits a span on track worker+1 (track 0 is the
// coordinator).
func (e *executor) runTasks(n *algebra.Node, tasks []func() error) ([]obs.WorkerStats, error) {
	w := e.workers
	if w > len(tasks) {
		w = len(tasks)
	}
	split := make([]obs.WorkerStats, w)
	tracer := e.ex.Tracer()
	label := ""
	if tracer != nil {
		label = algebra.Label(n)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := &split[g]
			for {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				err := e.ex.CheckCancel()
				if err == nil {
					var end func()
					if tracer != nil {
						end = tracer.StartSpan(g+1, "morsel", label)
					}
					m0 := time.Now()
					err = runMorsel(tasks[i])
					if end != nil {
						end()
					}
					obs.MorselsTotal.Inc()
					slot.Morsels++
					slot.Busy += time.Since(m0)
				}
				if err != nil {
					if qerr.IsRetryableCorrupt(err) {
						// A morsel died on a storage fault with a standby
						// replica left: account it so the failover retry
						// that follows is attributable to morsel-level
						// fault detection, not a mount-time failure.
						obs.StoreMorselFaultsTotal.Inc()
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	ran := split[:0]
	for g, s := range split {
		if s.Morsels > 0 {
			s.Worker = g
			ran = append(ran, s)
		}
	}
	return ran, firstErr
}

// runMorsel executes one morsel task with panic isolation: a panicking
// kernel converts to a qerr.ErrInternal error that propagates through
// runTasks' first-error merge path exactly like an ordinary morsel
// failure, draining the pool instead of crashing the process.
func runMorsel(task func() error) (err error) {
	defer qerr.RecoverInto("execute (parallel worker)", &err)
	// The fault.Morsels site: an armed plan's morselpanic class fires here.
	if p := fault.Armed(); p != nil && p.Fire(fault.MorselPanic, p.Next(fault.Morsels)) {
		panic(fault.InjectedPanic)
	}
	return task()
}

// ranges splits [0, n) into roughly morselsPerWorker*workers consecutive
// spans of at least min elements each; nil when n is too small to split.
func (e *executor) ranges(n, min int) [][2]int {
	if n < 2*min {
		return nil
	}
	chunk := n / (morselsPerWorker * e.workers)
	if chunk < min {
		chunk = min
	}
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// parStep partitions a staircase join. Descendant axes split each pruned
// scan region into preorder subranges (within-group parallelism — a
// //-path from a single document root is one giant region); the other
// axes chunk the per-fragment context sets. Morsels merge in serial scan
// order — into flat iter/node columns, no boxing — so the output is
// identical to evalStep's.
func (e *executor) parStep(n *algebra.Node, in *engine.Table) (*engine.Table, []obs.WorkerStats, bool, error) {
	runs, err := engine.GroupStep(in)
	if err != nil {
		return nil, nil, false, e.ex.Errf(n, "%v", err)
	}
	defer runs.Release() // after runTasks: the morsels read the runs' context sets
	isDesc := n.Axis == xquery.AxisDescendant || n.Axis == xquery.AxisDescendantOrSelf

	// One slot per run, in serial output order.
	type slot struct {
		iter int64
		frag *xmltree.Fragment
		m    engine.Matcher // the step's test bound to frag, read-only in the morsels
		ctx  []xdm.NodeID
		outs [][]xdm.NodeID // per-morsel results, morsel order = scan order
	}
	var slots []slot
	totalWork := 0
	m := engine.NewMatcher(n.Axis, n.Test)
	for runs.Next() {
		f := e.ex.Store().Frag(runs.Ctx[0].Frag)
		if !m.Bind(f) {
			continue // nothing in f matches
		}
		slots = append(slots, slot{iter: runs.Iter, frag: f, m: m, ctx: runs.Ctx})
		if !isDesc {
			totalWork += len(runs.Ctx)
			continue
		}
		engine.Staircase(f, runs.Ctx, n.Axis, func(_, lo, hi int32) {
			totalWork += int(hi-lo) + 1
		})
	}

	// Smallest morsel, scaled from the row-kernel unit: a context is worth
	// a few rows (64 contexts at the default), one preorder slot of a
	// descendant region far less than a row (8192 slots at the default).
	minChunk := max(e.minRows/4, 1)
	if isDesc {
		minChunk = e.minRows * 32
	}
	if totalWork < 2*minChunk {
		return nil, nil, false, nil
	}
	chunk := totalWork / (morselsPerWorker * e.workers)
	if chunk < minChunk {
		chunk = minChunk
	}

	// Child and parent axes need a whole-slot sort/dedup after the merge,
	// so their final row count can differ from the summed morsel outputs;
	// only the fix-up-free axes charge the budget inside the workers.
	chargeInWorker := n.Axis != xquery.AxisChild && n.Axis != xquery.AxisParent

	var tasks []func() error
	for si := range slots {
		s, f, ctx := &slots[si], slots[si].frag, slots[si].ctx
		// scan queues one morsel: its output lands in the slot's next cell.
		scan := func(kernel func() []xdm.NodeID) {
			ui := len(s.outs)
			s.outs = append(s.outs, nil)
			tasks = append(tasks, func() error {
				res := kernel()
				s.outs[ui] = res
				if chargeInWorker {
					return e.ex.ChargeCells(int64(len(res)) * 2)
				}
				return e.ex.CheckCells(0, 0)
			})
		}
		if isDesc {
			engine.Staircase(f, ctx, n.Axis, func(root, start, end int32) {
				for lo := start; lo <= end; lo += int32(chunk) {
					hi := min(lo+int32(chunk)-1, end)
					scan(func() []xdm.NodeID {
						return engine.ScanRegionRange(nil, f, ctx[0].Frag, root, lo, hi, &s.m)
					})
				}
			})
			continue
		}
		for lo := 0; lo < len(ctx); lo += chunk {
			part := ctx[lo:min(lo+chunk, len(ctx))]
			scan(func() []xdm.NodeID { return engine.AppendAxis(nil, f, part, &s.m) })
		}
	}
	if len(tasks) < 2 {
		return nil, nil, false, nil
	}

	split, err := e.runTasks(n, tasks)
	if err != nil {
		return nil, nil, false, err
	}

	total := 0
	for _, s := range slots {
		for _, u := range s.outs {
			total += len(u)
		}
	}
	outIter := xdm.GetInts(total)[:0]
	outItem := xdm.GetNodes(total)[:0]
	for _, s := range slots {
		base := len(outItem)
		for _, u := range s.outs {
			outItem = append(outItem, u...)
			xdm.PutNodes(u)
		}
		if len(s.outs) > 1 && !chargeInWorker {
			// Restore document order (child) and drop duplicates (parent)
			// across morsels, exactly as AppendAxis does across contexts.
			outItem = outItem[:base+len(engine.DedupSorted(outItem[base:]))]
		}
		outIter = engine.AppendIter(outIter, s.iter, len(outItem))
	}
	return engine.StepTable(outIter, outItem), split, chargeInWorker, nil
}

// parJoin builds the key index serially (builds don't decompose well at
// these sizes) and probes the left side in chunks; concatenating the
// per-chunk pair lists in chunk order reproduces the serial probe order.
// A θ-join takes the serial kernel: its operand tables are the small
// sides of a value join, and its sorted and indexed right side is not a
// structure to rebuild per morsel.
func (e *executor) parJoin(n *algebra.Node, l, r *engine.Table) (*engine.Table, []obs.WorkerStats, error) {
	lk, rk := l.Col(n.LCol), r.Col(n.RCol)
	cs := e.ranges(lk.Len(), e.minRows)
	if cs == nil || n.Mode != algebra.JoinEqui {
		return nil, nil, nil
	}
	ix, err := e.ex.BuildJoinIndex(rk)
	if err != nil {
		return nil, nil, err
	}
	width := len(l.Cols) + len(r.Cols)
	type part struct{ lperm, rperm []int32 }
	parts := make([]part, len(cs))
	tasks := make([]func() error, len(cs))
	for ci, c := range cs {
		ci, lo, hi := ci, c[0], c[1]
		tasks[ci] = func() error {
			lp, rp, err := e.ex.ProbeJoin(ix, lk, lo, hi, width)
			parts[ci] = part{lp, rp}
			return err
		}
	}
	split, err := e.runTasks(n, tasks)
	ix.Release()
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p.lperm)
	}
	if err := e.ex.CheckCells(total, width); err != nil {
		return nil, nil, err
	}
	lperm := xdm.GetInt32s(total)[:0]
	rperm := xdm.GetInt32s(total)[:0]
	for _, p := range parts {
		lperm = append(lperm, p.lperm...)
		rperm = append(rperm, p.rperm...)
		xdm.PutInt32s(p.lperm)
		xdm.PutInt32s(p.rperm)
	}
	t, err := e.ex.MaterializeJoin(n, l, r, lperm, rperm)
	xdm.PutInt32s(lperm)
	xdm.PutInt32s(rperm)
	if err != nil {
		return nil, nil, err
	}
	return t, split, nil
}
