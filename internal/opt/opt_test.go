package opt

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/compile"
	"repro/internal/norm"
	"repro/internal/xdm"
	"repro/internal/xmarkq"
	"repro/internal/xquery"
)

// mini builds a toy plan: loop × doc → step → ρ/# pos → π(pos, item)-style
// consumers, letting the passes be tested in isolation.
func miniStep(b *algebra.Builder, test string) *algebra.Node {
	loop := b.LitCol("iter", xdm.NewInt(1))
	ctx := b.Cross(loop, b.Doc("d.xml"))
	return b.Step(ctx, xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: test})
}

func TestDeadRowNumPruned(t *testing.T) {
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	rn := b.RowNum(step, "pos", []algebra.SortSpec{{Col: "item"}}, "iter")
	// Consumer ignores pos entirely.
	root := b.Keep(rn, "item")
	out := Optimize(root, b, Options{ColumnAnalysis: true})
	if algebra.PlanStats(out).RowNums != 0 {
		t.Errorf("dead rownum survived:\n%s", algebra.Print(out))
	}
}

func TestLiveRowNumKept(t *testing.T) {
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	rn := b.RowNum(step, "pos", []algebra.SortSpec{{Col: "item"}}, "iter")
	root := b.Keep(rn, "pos", "item") // pos is the result position: required
	out := Optimize(root, b, Options{ColumnAnalysis: true})
	if algebra.PlanStats(out).RowNums != 1 {
		t.Errorf("live rownum pruned:\n%s", algebra.Print(out))
	}
}

func TestDeadLiteralCrossPruned(t *testing.T) {
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	crossed := b.Cross(step, b.LitCol("pos", xdm.NewInt(1)))
	root := b.Keep(crossed, "item")
	out := Optimize(root, b, Options{ColumnAnalysis: true})
	for _, n := range algebra.Nodes(out) {
		if n.Kind == algebra.OpCross && n.Ins[1].Kind == algebra.OpLit && n.Ins[1].Cols[0] == "pos" {
			t.Errorf("dead × pos|1 survived:\n%s", algebra.Print(out))
		}
	}
}

func TestChainedDeadOrderBookkeeping(t *testing.T) {
	// #pos over %pos: once the outer # makes the inner % dead, a second
	// round prunes the # itself if unused — the cascade of §4.1.
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	rn := b.RowNum(step, "pos", []algebra.SortSpec{{Col: "item"}}, "iter")
	rid := b.RowID(b.Keep(rn, "iter", "item"), "pos")
	root := b.Keep(rid, "item")
	out := Optimize(root, b, Options{ColumnAnalysis: true})
	s := algebra.PlanStats(out)
	if s.RowNums != 0 || s.RowIDs != 0 {
		t.Errorf("cascaded pruning incomplete (ρ=%d, #=%d):\n%s", s.RowNums, s.RowIDs, algebra.Print(out))
	}
}

func TestRelaxationNeedsOrderOnlyUse(t *testing.T) {
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	rid := b.RowID(step, "arb") // arbitrary unique column
	rn := b.RowNum(rid, "pos", []algebra.SortSpec{{Col: "arb"}}, "")
	// pos used as a *value* (selection): must NOT relax.
	withLit := b.Cross(rn, b.LitCol("pv", xdm.NewInt(2)))
	cmp := b.BinOp(withLit, algebra.BCmpVal, xdm.CmpEq, "res", "pos", "pv")
	rootVal := b.Keep(b.Select(cmp, "res"), "item", "pos")
	out := Optimize(rootVal, b, Options{ColumnAnalysis: true, RownumRelax: true})
	if algebra.PlanStats(out).RowNums != 1 {
		t.Errorf("value-consumed rownum relaxed:\n%s", algebra.Print(out))
	}

	// pos used only for ordering (as the root pos): relaxes to #.
	rootOrd := b.Keep(rn, "pos", "item")
	out2 := Optimize(rootOrd, b, Options{ColumnAnalysis: true, RownumRelax: true})
	if algebra.PlanStats(out2).RowNums != 0 {
		t.Errorf("order-only rownum over arbitrary keys not relaxed:\n%s", algebra.Print(out2))
	}
}

func TestRelaxationDropsConstantKeys(t *testing.T) {
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	crossed := b.Cross(step, b.LitCol("c", xdm.NewInt(7)))
	rn := b.RowNum(crossed, "pos", []algebra.SortSpec{{Col: "c"}, {Col: "item"}}, "")
	root := b.Keep(rn, "pos", "item")
	out := Optimize(root, b, Options{ColumnAnalysis: true, RownumRelax: true})
	for _, n := range algebra.Nodes(out) {
		if n.Kind == algebra.OpRowNum {
			if len(n.Sort) != 1 || n.Sort[0].Col != "item" {
				t.Errorf("constant key not dropped: %v", n.Sort)
			}
		}
	}
}

func TestRelaxationStopsAtMeaningfulKey(t *testing.T) {
	// <item, arb>: arb is arbitrary-unique but FOLLOWS a meaningful key —
	// only the tail from arb on may be dropped; item must stay.
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	rid := b.RowID(step, "arb")
	rn := b.RowNum(rid, "pos", []algebra.SortSpec{{Col: "item"}, {Col: "arb"}}, "")
	root := b.Keep(rn, "pos", "item")
	out := Optimize(root, b, Options{ColumnAnalysis: true, RownumRelax: true})
	found := false
	for _, n := range algebra.Nodes(out) {
		if n.Kind == algebra.OpRowNum {
			found = true
			if len(n.Sort) != 1 || n.Sort[0].Col != "item" {
				t.Errorf("sort keys after relaxation: %v", n.Sort)
			}
		}
	}
	if !found {
		t.Errorf("rownum with a meaningful key disappeared:\n%s", algebra.Print(out))
	}
}

func TestStepMergePattern(t *testing.T) {
	b := algebra.NewBuilder()
	loop := b.LitCol("iter", xdm.NewInt(1))
	ctx := b.Cross(loop, b.Doc("d.xml"))
	dos := b.Step(ctx, xquery.AxisDescendantOrSelf, xquery.NodeTest{Kind: xquery.TestNode})
	child := b.Step(dos, xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "item"})
	out := Optimize(b.Keep(child, "iter", "item"), b, Options{StepMerge: true})
	var merged *algebra.Node
	for _, n := range algebra.Nodes(out) {
		if n.Kind == algebra.OpStep && n.Axis == xquery.AxisDescendant {
			merged = n
		}
		if n.Kind == algebra.OpStep && n.Axis == xquery.AxisDescendantOrSelf {
			t.Error("descendant-or-self step survived the merge")
		}
	}
	if merged == nil || merged.Test.Name != "item" {
		t.Fatalf("merge missing:\n%s", algebra.Print(out))
	}
	// Merging must see through # but is blocked by ρ.
	rn := b.RowNum(dos, "pos", []algebra.SortSpec{{Col: "item"}}, "iter")
	blocked := b.Step(b.Keep(rn, "iter", "item"), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "item"})
	out2 := Optimize(blocked, b, Options{StepMerge: true})
	for _, n := range algebra.Nodes(out2) {
		if n.Kind == algebra.OpStep && n.Axis == xquery.AxisDescendant {
			t.Error("merge fired through a ρ")
		}
	}
}

func TestDisjointDistinctRemoval(t *testing.T) {
	b := algebra.NewBuilder()
	// union of child::c and child::d (disjoint names) → distinct removable.
	sc := miniStep(b, "c")
	sd := miniStep(b, "d")
	d := b.Distinct(b.Union(sc, sd), "iter", "item")
	out := Optimize(b.Keep(d, "iter", "item"), b, Options{DisjointDistinct: true})
	if algebra.PlanStats(out).ByKind[algebra.OpDistinct] != 0 {
		t.Errorf("distinct over disjoint steps survived:\n%s", algebra.Print(out))
	}
	// Same name on both branches: distinct must stay.
	d2 := b.Distinct(b.Union(sc, miniStep(b, "c")), "iter", "item")
	out2 := Optimize(b.Keep(d2, "iter", "item"), b, Options{DisjointDistinct: true})
	if algebra.PlanStats(out2).ByKind[algebra.OpDistinct] != 1 {
		t.Errorf("distinct over same-name steps removed:\n%s", algebra.Print(out2))
	}
}

func TestOptimizeFixpointTerminates(t *testing.T) {
	b := algebra.NewBuilder()
	step := miniStep(b, "x")
	rn := b.RowNum(step, "pos", []algebra.SortSpec{{Col: "item"}}, "iter")
	root := b.Keep(rn, "pos", "item")
	out1 := Optimize(root, b, AllOptions())
	out2 := Optimize(out1, b, AllOptions())
	if out1 != out2 {
		t.Error("optimizer is not idempotent at its fixed point")
	}
}

func TestInferRequiredSeedsRoot(t *testing.T) {
	b := algebra.NewBuilder()
	lit := b.Lit([]string{"pos", "item", "junk"})
	r := inferRequired(lit).req(lit)
	if !r.has("pos") || !r.has("item") {
		t.Error("root must require pos and item")
	}
	if r.has("junk") {
		t.Error("junk must not be required")
	}
	if !r.orderOnly("pos") {
		t.Error("root pos is an order-only requirement")
	}
	if r.orderOnly("item") {
		t.Error("root item is a value requirement")
	}
}

// TestConstructorKeepsLoopCardinality: a constructor emits one row per
// loop row and copies its iter, so a loop whose iter is a key hands the
// key on — while a step over the same loop, which fans out, does not —
// and every slot of the template is read by iter, pos (as order) and
// item.
func TestConstructorKeepsLoopCardinality(t *testing.T) {
	b := algebra.NewBuilder()
	src := b.Lit([]string{"item"}, []xdm.Item{xdm.NewInt(7)}, []xdm.Item{xdm.NewInt(8)})
	loop := b.Keep(b.RowID(src, "iter"), "iter")
	slot := b.Lit([]string{"iter", "pos", "item", "junk"})
	tmpl := []algebra.Tmpl{
		{Kind: algebra.TElem, Text: "a"}, {Kind: algebra.TAttr, Text: "x"}, {Kind: algebra.TValue, Slot: 1},
		{Kind: algebra.TElem, Text: "b"}, {Kind: algebra.TContent, Slot: 2}, {Kind: algebra.TEnd}, {Kind: algebra.TEnd},
	}
	elem := b.Elem(tmpl, loop, slot, b.Keep(slot, "iter", "pos", "item"))
	step := b.Step(b.Cross(loop, b.LitCol("item", xdm.NewInt(1))), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestNode})
	for _, c := range []struct {
		n      *algebra.Node
		unique bool
	}{{loop, true}, {elem, true}, {step, false}} {
		root := b.Cross(c.n, b.LitCol("pos", xdm.NewInt(1)))
		if c.n.Kind != algebra.OpElem {
			root = b.Project(root, algebra.ColPair{New: "pos", Old: "pos"}, algebra.ColPair{New: "item", Old: "iter"})
		}
		a := inferRequired(root)
		a.inferProps()
		if got := a.prop(c.n, "iter").unique; got != c.unique {
			t.Errorf("%s: iter unique = %v, want %v", algebra.Label(c.n), got, c.unique)
		}
		if c.n == elem {
			if r := a.req(slot); !r.has("iter") || !r.has("item") || !r.orderOnly("pos") || r.has("junk") {
				t.Errorf("slot requirements %v, want iter and item by value, pos as order", r.required())
			}
		}
	}
}

// TestThetaJoinAnalysis: a θ-join consumes its operand columns by value,
// so nothing below it may prune them, and — unlike an equi-join against a
// key — bounds nobody's partner count, so no key survives it.
func TestThetaJoinAnalysis(t *testing.T) {
	b := algebra.NewBuilder()
	l := b.RowID(b.Lit([]string{"aval"}), "aiter")
	r := b.RowID(b.Lit([]string{"bval"}), "biter")
	for _, mode := range []algebra.JoinMode{algebra.JoinEqui, algebra.JoinTheta, algebra.JoinIncomparable} {
		j := b.ThetaJoin(l, r, "aiter", "biter", xdm.CmpLt, mode)
		root := b.Project(j, algebra.ColPair{New: "pos", Old: "aiter"}, algebra.ColPair{New: "item", Old: "biter"})
		a := inferRequired(root)
		a.inferProps()
		if !a.req(l).has("aiter") || !a.req(r).has("biter") || a.req(l).orderOnly("aiter") {
			t.Errorf("mode %d: operand columns must be value-required", mode)
		}
		if got, want := a.prop(j, "aiter").unique, mode == algebra.JoinEqui; got != want {
			t.Errorf("mode %d: key survives the join: %v, want %v", mode, got, want)
		}
	}
	// Operands nobody else reads still reach the θ-join.
	j := b.ThetaJoin(l, r, "aval", "bval", xdm.CmpLt, algebra.JoinTheta)
	root := b.Project(b.Distinct(j, "aiter", "biter"), algebra.ColPair{New: "pos", Old: "aiter"}, algebra.ColPair{New: "item", Old: "biter"})
	if out := Optimize(root, b, AllOptions()); out != root {
		t.Errorf("optimizer rewrote a plan with nothing to prune:\n%s", algebra.Print(out))
	}
}

// xmarkPlanCounts holds {operators, ρ, #} of every optimized XMark plan,
// {ordered, unordered}, as PR 18's optimizer (three memoised walks per
// round over map-based inference) produced them. A cheaper optimizer has
// to arrive at the same fixpoint. Q8–Q12 hold 3 operators fewer per
// join-recognised comparison than they did then: two θ-joins where the
// compiler used to emit cross, two binops and two selects. They hold 8–20
// fewer again since their inner for clauses are minted from the value join
// (no lift over the pair space, no iteration-mapping join, no semijoin).
// Plans with constructors hold fewer again since a tree of directly nested
// constructors compiles to one template operator (no per-level unions,
// "sequence order" ρ or attribute fragments), and since a constructor
// keeps its loop's iter a key, which relaxes the back-mapping ρ over it
// into # in unordered mode.
var xmarkPlanCounts = map[string][2][3]int{
	"Q1":  {{50, 5, 0}, {46, 1, 2}},
	"Q2":  {{38, 7, 0}, {33, 1, 5}},
	"Q3":  {{82, 8, 0}, {77, 1, 6}},
	"Q4":  {{115, 6, 2}, {111, 0, 6}},
	"Q5":  {{48, 2, 0}, {46, 0, 1}},
	"Q6":  {{26, 3, 0}, {24, 0, 2}},
	"Q7":  {{65, 3, 0}, {63, 0, 2}},
	"Q8":  {{65, 6, 1}, {61, 0, 5}},
	"Q9":  {{100, 10, 3}, {96, 0, 10}},
	"Q10": {{126, 16, 2}, {122, 0, 16}},
	"Q11": {{77, 6, 1}, {73, 0, 5}},
	"Q12": {{105, 6, 1}, {101, 0, 5}},
	"Q13": {{24, 5, 0}, {22, 0, 4}},
	"Q14": {{71, 4, 0}, {67, 1, 1}},
	"Q15": {{29, 3, 0}, {27, 0, 2}},
	"Q16": {{40, 4, 0}, {38, 0, 3}},
	"Q17": {{31, 4, 0}, {29, 0, 3}},
	"Q18": {{30, 3, 0}, {28, 1, 1}},
	"Q19": {{35, 3, 1}, {35, 1, 3}},
	"Q20": {{148, 4, 0}, {143, 0, 2}},
}

func TestOptimizeIdempotent(t *testing.T) {
	for _, q := range xmarkq.All() {
		for i, ord := range []xquery.OrderingMode{xquery.Ordered, xquery.Unordered} {
			mod, err := xquery.Parse(q.Text)
			if err != nil {
				t.Fatal(err)
			}
			mod.Ordering = ord
			nm, err := norm.Normalize(mod, norm.Options{InsertUnordered: true})
			if err != nil {
				t.Fatal(err)
			}
			p, err := compile.Compile(nm, compile.Options{Indifference: true})
			if err != nil {
				t.Fatal(err)
			}
			out := Optimize(p.Root, p.Builder, AllOptions())
			if again := Optimize(out, p.Builder, AllOptions()); again != out {
				t.Errorf("%s %v: Optimize moved its own fixpoint", q.Name, ord)
			}
			s := algebra.PlanStats(out)
			if got := [3]int{s.Operators, s.RowNums, s.RowIDs}; got != xmarkPlanCounts[q.Name][i] {
				t.Errorf("%s %v: {operators, ρ, #} = %v, want %v", q.Name, ord, got, xmarkPlanCounts[q.Name][i])
			}
		}
	}
}
