package vm

// Structural invariants of Compile, independent of the end-to-end
// differential suite in internal/core: register discipline (topological
// sources, last-consumer release, root never released), extra-use counts
// on shared nodes, and a program executed through Run — serial and with
// forced morsels — agreeing with the engine's kernels applied by hand to
// the same DAG.

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// sharedPlan builds a small DAG with one node consumed twice: a doc scan
// stepped to //b, whose output feeds both sides of a cross product.
func sharedPlan() *algebra.Node {
	b := algebra.NewBuilder()
	doc := b.Doc("d.xml")
	ctx := b.Cross(b.LitCol("iter", xdm.NewInt(1)), doc)
	shared := b.Step(ctx, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestName, Name: "b"})
	left := b.Project(shared, algebra.ColPair{New: "l", Old: "item"})
	right := b.Project(shared, algebra.ColPair{New: "r", Old: "item"})
	return b.Cross(left, right)
}

func TestCompileRegisterDiscipline(t *testing.T) {
	root := sharedPlan()
	p := Compile(root)
	if p.NumInstrs() != len(algebra.Nodes(root)) {
		t.Fatalf("%d instructions for %d plan nodes", p.NumInstrs(), len(algebra.Nodes(root)))
	}
	lastUse := map[uint32]int{}
	for i, ins := range p.instrs {
		if int(ins.dst) != i {
			t.Errorf("instr %d writes register %d (registers are topo positions)", i, ins.dst)
		}
		for _, s := range ins.srcs {
			if s >= ins.dst {
				t.Errorf("instr %d reads register %d, not yet written", i, s)
			}
			lastUse[s] = i
		}
	}
	released := map[uint32]int{}
	for i, ins := range p.instrs {
		for _, r := range ins.release {
			if prev, dup := released[r]; dup {
				t.Errorf("register %d released twice (instr %d and %d)", r, prev, i)
			}
			released[r] = i
			if i < lastUse[r] {
				t.Errorf("register %d released at instr %d but read later at %d", r, i, lastUse[r])
			}
		}
	}
	rootReg := p.instrs[len(p.instrs)-1].dst
	if _, ok := released[rootReg]; ok {
		t.Error("root register released inside the program (Finish reads it after)")
	}
	// Every non-root register with a consumer is released exactly once.
	for r, last := range lastUse {
		if _, ok := released[r]; !ok {
			t.Errorf("register %d (last used at %d) never released", r, last)
		}
	}
}

func TestCompileSharedNodeMemoUses(t *testing.T) {
	p := Compile(sharedPlan())
	var sharedExtra int
	for _, ins := range p.instrs {
		if ins.node.Kind == algebra.OpStep {
			sharedExtra = ins.extraUses
		}
	}
	if sharedExtra != 1 {
		t.Errorf("doubly consumed step node has extraUses=%d, want 1 (one reuse beyond the first consumer)", sharedExtra)
	}
}

func TestRunMatchesEngineOnHandBuiltPlan(t *testing.T) {
	store := xmltree.NewStore()
	f, err := xmltree.ParseString(`<r><b>x</b><b>y</b></r>`, "d.xml", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]uint32{"d.xml": {store.Add(f)}}
	// A serializable root: (pos, item) over the //b nodes.
	b := algebra.NewBuilder()
	ctx := b.Cross(b.LitCol("iter", xdm.NewInt(1)), b.Doc("d.xml"))
	s := b.Step(ctx, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestName, Name: "b"})
	root := b.Keep(b.RowID(s, "pos"), "pos", "item")

	s.Par = true // what opt.MarkParallel would do: # makes the step order-dead

	// The reference: every kernel applied once, in plan order, nothing
	// released.
	ex := engine.NewExec(store, docs, engine.Options{})
	out := make(map[*algebra.Node]*engine.Table)
	for _, n := range algebra.Nodes(root) {
		ins := make([]*engine.Table, len(n.Ins))
		for i, in := range n.Ins {
			ins[i] = out[in]
		}
		if out[n], err = ex.EvalOp(n, ins); err != nil {
			t.Fatal(err)
		}
	}
	want := ex.Finish(out[root], time.Now())

	for _, opts := range []Options{{}, {Workers: 4, MinMorselRows: 1}} {
		got, err := Run(Compile(root), store, docs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Items) != len(want.Items) || len(got.Items) != 2 {
			t.Fatalf("workers=%d: program %d items, kernels %d items, want 2", opts.Workers, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("workers=%d item %d: program %v, kernels %v", opts.Workers, i, got.Items[i], want.Items[i])
			}
		}
	}
}

func TestRunUnknownDocumentError(t *testing.T) {
	b := algebra.NewBuilder()
	plan := b.Cross(b.LitCol("iter", xdm.NewInt(1)), b.Doc("missing.xml"))
	_, err := Run(Compile(plan), xmltree.NewStore(), nil, Options{})
	if err == nil || !strings.Contains(err.Error(), `unknown document "missing.xml"`) {
		t.Fatalf("err = %v, want unknown document", err)
	}
}

// TestFrameRecordSize pins the per-instruction record a pooled frame
// holds: only the fields the executor loop writes (72 bytes), not the
// plan node's static fields a collected run adds to its copy.
func TestFrameRecordSize(t *testing.T) {
	var f frame
	if n := unsafe.Sizeof(f.ops[0]); n > 72 {
		t.Errorf("a frame holds %d bytes per instruction record, want at most 72", n)
	}
}
