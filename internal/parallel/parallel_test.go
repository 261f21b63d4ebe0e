package parallel_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/qerr"
	"repro/internal/vm"
	"repro/internal/xdm"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

func xmarkEnv(t testing.TB, factor float64) (*xmltree.Store, map[string][]uint32) {
	t.Helper()
	store := xmltree.NewStore()
	f := xmark.Generate(xmark.Config{Factor: factor})
	return store, map[string][]uint32{"auction.xml": {store.Add(f)}}
}

func serialize(t *testing.T, res *engine.Result) string {
	t.Helper()
	s, err := res.SerializeXML()
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return s
}

// TestParallelMatchesSerialXMark runs the full XMark corpus with a
// morsel pool and requires byte-identical results to the serial run —
// morsels merge in serial scan order, so this holds in ordered mode too,
// not just for order-indifferent queries.
func TestParallelMatchesSerialXMark(t *testing.T) {
	store, docs := xmarkEnv(t, 0.01)
	u := xquery.Unordered
	unordered := core.DefaultConfig()
	unordered.ForceOrdering = &u
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"ordered", core.DefaultConfig()},
		{"unordered", unordered},
	}
	for _, m := range modes {
		for _, q := range xmarkq.All() {
			t.Run(m.name+"/"+q.Name, func(t *testing.T) {
				scfg := m.cfg
				sp, err := core.Prepare(q.Text, scfg)
				if err != nil {
					t.Fatalf("prepare serial: %v", err)
				}
				sres, err := sp.Run(store, docs)
				if err != nil {
					t.Fatalf("serial run: %v", err)
				}
				pcfg := m.cfg
				pcfg.Parallelism = 4
				pp, err := core.Prepare(q.Text, pcfg)
				if err != nil {
					t.Fatalf("prepare parallel: %v", err)
				}
				pres, err := pp.Run(store, docs)
				if err != nil {
					t.Fatalf("parallel run: %v", err)
				}
				if got, want := serialize(t, pres), serialize(t, sres); got != want {
					t.Errorf("parallel result differs from serial\n got %.200q\nwant %.200q", got, want)
				}
			})
		}
	}
}

// TestParallelDescendantScan uses a document large enough that the
// descendant-axis scan regions split into preorder-range morsels (the
// within-group parallelism Q6/Q7-shaped queries rely on: one iteration
// group, one giant region) and checks byte equality against the serial
// run. Only linear-cost count queries run at this scale.
func TestParallelDescendantScan(t *testing.T) {
	store, docs := xmarkEnv(t, 0.1)
	u := xquery.Unordered
	queries := []struct{ name, text string }{
		{"q6", xmarkq.Get(6).Text},
		{"q7", xmarkq.Get(7).Text},
		{"keyword-count", `count(doc("auction.xml")//keyword)`},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.ForceOrdering = &u
			cfg.Parallelism = 4
			p, err := core.Prepare(q.text, cfg)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			sres, err := vm.Run(vm.Compile(p.Plan.Root), store, docs, vm.Options{})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			pres, err := vm.Run(vm.Compile(p.Plan.Root), store, docs, vm.Options{Workers: 4})
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if got, want := serialize(t, pres), serialize(t, sres); got != want {
				t.Errorf("parallel result differs from serial\n got %.200q\nwant %.200q", got, want)
			}
		})
	}
}

// TestRunForcedMorsels drives the executor directly with MinMorselRows=1
// so that the join/select/binop/map1 morsel kernels engage even on a
// small document, and checks byte equality against the serial run.
func TestRunForcedMorsels(t *testing.T) {
	store, docs := xmarkEnv(t, 0.01)
	u := xquery.Unordered
	for _, q := range xmarkq.All() {
		t.Run(q.Name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.ForceOrdering = &u
			cfg.Parallelism = 4 // marks the plan's parallel regions
			p, err := core.Prepare(q.Text, cfg)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			sres, err := vm.Run(vm.Compile(p.Plan.Root), store, docs, vm.Options{})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			pres, err := vm.Run(vm.Compile(p.Plan.Root), store, docs, vm.Options{
				Workers:       4,
				MinMorselRows: 1,
			})
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if got, want := serialize(t, pres), serialize(t, sres); got != want {
				t.Errorf("forced-morsel result differs from serial\n got %.200q\nwant %.200q", got, want)
			}
		})
	}
}

// TestThetaJoinTakesSerialKernel: a Par-marked θ-join is declined by the
// morsel pool whatever its size, so the executor loop runs the serial
// kernel; the equi-join over the same columns is taken.
func TestThetaJoinTakesSerialKernel(t *testing.T) {
	const rows = 4096
	keys := func() *xdm.Column {
		v := make([]int64, rows)
		for i := range v {
			v[i] = int64(i)
		}
		return xdm.IntColumn(v)
	}
	l, r := engine.NewTable([]string{"a"}), engine.NewTable([]string{"b"})
	l.Data[0], r.Data[0] = keys(), keys()
	b := algebra.NewBuilder()
	ex := engine.NewExec(xmltree.NewStore(), nil, engine.Options{})
	for _, mode := range []algebra.JoinMode{algebra.JoinEqui, algebra.JoinTheta, algebra.JoinIncomparable} {
		n := b.ThetaJoin(b.EmptyLit("a"), b.EmptyLit("b"), "a", "b", xdm.CmpEq, mode)
		n.Par = true
		out, _, _, err := parallel.EvalParOp(ex, 4, 1, n, []*engine.Table{l, r})
		if err != nil {
			t.Fatal(err)
		}
		if taken := out != nil; taken != (mode == algebra.JoinEqui) {
			t.Errorf("mode %d: taken by the morsel pool = %v", mode, taken)
		}
	}
}

// TestMarkParallelRegions checks the analysis end of the subsystem: an
// order-indifferent aggregate query gets Par-marked steps (and the
// marker shows up in Explain), while ρ and constructors are never marked
// anywhere in the corpus, and only the operators the morsel pool runs —
// steps and equi-joins — are marked at all.
func TestMarkParallelRegions(t *testing.T) {
	u := xquery.Unordered
	cfg := core.DefaultConfig()
	cfg.ForceOrdering = &u
	cfg.Parallelism = 4

	p, err := core.Prepare(`count(doc("auction.xml")//keyword)`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	marked, steps := 0, 0
	for _, n := range algebra.Nodes(p.Plan.Root) {
		if n.Par {
			marked++
			if n.Kind == algebra.OpStep {
				steps++
			}
		}
	}
	if marked == 0 {
		t.Error("no parallel regions marked for an order-indifferent count query")
	}
	if steps == 0 {
		t.Error("no Par-marked step in an order-indifferent count query")
	}
	if !strings.Contains(p.Explain(), "[par]") {
		t.Error("Explain does not show [par] markers")
	}

	for _, q := range xmarkq.All() {
		pq, err := core.Prepare(q.Text, cfg)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, n := range algebra.Nodes(pq.Plan.Root) {
			if n.Par && (n.Kind == algebra.OpRowNum || n.Kind == algebra.OpElem) {
				t.Errorf("%s: %s marked parallel", q.Name, n.Kind)
			}
			if n.Par && n.Kind != algebra.OpStep && (n.Kind != algebra.OpJoin || n.Mode != algebra.JoinEqui) {
				t.Errorf("%s: %s marked parallel, but the morsel pool has no kernel for it", q.Name, algebra.Label(n))
			}
		}
	}
}

// TestSerialPlansUnmarked: without Parallelism the seed behaviour is
// untouched — no Par flags, no [par] in Explain.
func TestSerialPlansUnmarked(t *testing.T) {
	p, err := core.Prepare(`count(doc("auction.xml")//keyword)`, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range algebra.Nodes(p.Plan.Root) {
		if n.Par {
			t.Fatalf("Par set on %s without Parallelism", n.Kind)
		}
	}
	if strings.Contains(p.Explain(), "[par]") {
		t.Error("serial Explain shows [par]")
	}
}

// TestParallelCutoffs verifies that the shared budgets abort a parallel
// run: the atomic cell budget and the deadline are both checked
// cooperatively by the workers.
func TestParallelCutoffs(t *testing.T) {
	store, docs := xmarkEnv(t, 0.02)
	u := xquery.Unordered

	cfg := core.DefaultConfig()
	cfg.ForceOrdering = &u
	cfg.Parallelism = 4
	cfg.MaxCells = 64
	p, err := core.Prepare(`count(doc("auction.xml")//keyword)`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(store, docs); !errors.Is(err, engine.ErrCutoff) {
		t.Errorf("memory cutoff: got %v, want ErrCutoff", err)
	}

	cfg.MaxCells = 0
	cfg.Timeout = time.Nanosecond
	p, err = core.Prepare(`count(doc("auction.xml")//keyword)`, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(store, docs); !errors.Is(err, engine.ErrCutoff) {
		t.Errorf("time cutoff: got %v, want ErrCutoff", err)
	}
}

// TestWorkerPanicIsolated injects a panic into every morsel task via a
// fault plan and requires the query to fail with a diagnostic internal
// error — the worker pool must recover the panic, propagate it through
// the merge path, and drain, instead of crashing the process.
func TestWorkerPanicIsolated(t *testing.T) {
	store, docs := xmarkEnv(t, 0.01)
	u := xquery.Unordered
	cfg := core.DefaultConfig()
	cfg.ForceOrdering = &u
	cfg.Parallelism = 4
	p, err := core.Prepare(xmarkq.Get(8).Text, cfg)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer fault.Arm(&fault.Plan{Every: fault.PerClass{fault.MorselPanic: 1}})()
	before := runtime.NumGoroutine()
	_, err = vm.Run(vm.Compile(p.Plan.Root), store, docs, vm.Options{
		Workers:       4,
		MinMorselRows: 1, // every parallel operator engages its morsel kernel
	})
	if err == nil {
		t.Fatal("worker panic produced a result")
	}
	if !errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("worker panic not classified internal: %v", err)
	}
	var qe *qerr.Error
	if !errors.As(err, &qe) {
		t.Fatalf("no *qerr.Error in chain: %v", err)
	}
	if !strings.Contains(qe.Phase, "parallel worker") {
		t.Errorf("phase %q does not identify the parallel worker", qe.Phase)
	}
	if !strings.Contains(err.Error(), fault.InjectedPanic) {
		t.Errorf("panic value lost from message: %v", err)
	}
	// The pool must drain even though every task panicked.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after worker panic: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
