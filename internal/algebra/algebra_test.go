package algebra

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

func TestHashConsingSharesStructure(t *testing.T) {
	b := NewBuilder()
	l1 := b.LitCol("iter", xdm.NewInt(1))
	l2 := b.LitCol("iter", xdm.NewInt(1))
	if l1 != l2 {
		t.Error("identical literals must be the same node")
	}
	d1 := b.Doc("a.xml")
	s1 := b.Step(b.Cross(l1, d1), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "x"})
	s2 := b.Step(b.Cross(l2, b.Doc("a.xml")), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "x"})
	if s1 != s2 {
		t.Error("identical step chains must share")
	}
	s3 := b.Step(b.Cross(l1, d1), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "y"})
	if s1 == s3 {
		t.Error("different node tests must not share")
	}
}

func TestConstructorsNeverShare(t *testing.T) {
	b := NewBuilder()
	loop := b.LitCol("iter", xdm.NewInt(1))
	content := b.EmptyLit("iter", "pos", "item")
	e1 := b.Elem(elemTmpl("a"), loop, content)
	e2 := b.Elem(elemTmpl("a"), loop, content)
	if e1 == e2 {
		t.Error("element constructors create fresh node identity and must not be shared")
	}
	attr := []Tmpl{{Kind: TElem, Text: "a"}, {Kind: TAttr, Text: "k"}, {Kind: TValue, Slot: 1}, {Kind: TEnd}}
	a1 := b.Elem(attr, loop, content)
	a2 := b.Elem(attr, loop, content)
	if a1 == a2 {
		t.Error("constructors with attributes must not be shared")
	}
}

// elemTmpl is the template of <name>{1}</name>.
func elemTmpl(name string) []Tmpl {
	return []Tmpl{{Kind: TElem, Text: name}, {Kind: TContent, Slot: 1}, {Kind: TEnd}}
}

func TestRebuildPreservesIdentityAndSerial(t *testing.T) {
	b := NewBuilder()
	loop := b.LitCol("iter", xdm.NewInt(1))
	content := b.EmptyLit("iter", "pos", "item")
	e := b.Elem(elemTmpl("a"), loop, content)
	same := b.Rebuild(e, []*Node{loop, content})
	if same != e {
		t.Error("rebuild with identical inputs must return the same node")
	}
	content2 := b.EmptyLit("item", "pos", "iter") // different column order
	r := b.Rebuild(e, []*Node{loop, content2})
	if r == e || r.Ser != e.Ser || !reflect.DeepEqual(r.Tmpl, e.Tmpl) {
		t.Errorf("rebuild must keep parameters (ser %d vs %d, template %v vs %v)", r.Ser, e.Ser, r.Tmpl, e.Tmpl)
	}
}

func TestSchemaInference(t *testing.T) {
	b := NewBuilder()
	lit := b.Lit([]string{"iter", "pos", "item"})
	if got := b.Keep(lit, "iter", "item").Schema(); len(got) != 2 {
		t.Errorf("keep schema: %v", got)
	}
	rn := b.RowNum(lit, "r", []SortSpec{{Col: "pos"}}, "iter")
	if !rn.HasCol("r") || !rn.HasCol("item") {
		t.Errorf("rownum schema: %v", rn.Schema())
	}
	j := b.Join(b.Lit([]string{"a"}), b.Lit([]string{"b"}), "a", "b")
	if len(j.Schema()) != 2 {
		t.Errorf("join schema: %v", j.Schema())
	}
}

func TestSchemaViolationsPanic(t *testing.T) {
	assertPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	b := NewBuilder()
	lit := b.Lit([]string{"iter", "item"})
	assertPanic("project unknown col", func() { b.Keep(lit, "nope") })
	assertPanic("join duplicate cols", func() { b.Join(lit, lit, "iter", "iter") })
	assertPanic("union mismatched schemas", func() {
		b.Union(lit, b.Lit([]string{"iter", "other"}))
	})
	assertPanic("rownum missing sort col", func() {
		b.RowNum(lit, "r", []SortSpec{{Col: "ghost"}}, "")
	})
	assertPanic("step without iter", func() {
		b.Step(b.Lit([]string{"item"}), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestWild})
	})
	assertPanic("strjoin without pos", func() {
		b.Aggr(lit, AggrStrJoin, "r", "item", "iter")
	})
}

func TestIdentityProjectionEliminated(t *testing.T) {
	b := NewBuilder()
	lit := b.Lit([]string{"iter", "pos", "item"})
	if b.Keep(lit, "iter", "pos", "item") != lit {
		t.Error("identity projection should vanish")
	}
	// Chained projections collapse.
	p1 := b.Project(lit, ColPair{New: "a", Old: "iter"}, ColPair{New: "b", Old: "pos"})
	p2 := b.Project(p1, ColPair{New: "c", Old: "a"})
	if p2.Ins[0] != lit {
		t.Error("projection chain should collapse onto the base input")
	}
}

func TestPlanStatsAndPrint(t *testing.T) {
	b := NewBuilder()
	loop := b.LitCol("iter", xdm.NewInt(1))
	doc := b.Doc("a.xml")
	ctx := b.Cross(loop, doc)
	step := b.Step(ctx, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestWild})
	rn := b.RowNum(step, "pos", []SortSpec{{Col: "item"}}, "iter")
	rid := b.RowID(step, "pos2")
	root := b.Union(b.Keep(rn, "iter", "pos", "item"),
		b.Project(rid, ColPair{New: "iter", Old: "iter"}, ColPair{New: "pos", Old: "pos2"}, ColPair{New: "item", Old: "item"}))
	s := PlanStats(root)
	if s.RowNums != 1 || s.RowIDs != 1 || s.Steps != 1 {
		t.Errorf("stats: %+v", s)
	}
	out := Print(root)
	if !strings.Contains(out, "rownum pos:<item>/iter") || !strings.Contains(out, "step descendant::*") {
		t.Errorf("print output:\n%s", out)
	}
	// Shared nodes print once, then as ^id references.
	if !strings.Contains(out, "^") {
		t.Error("shared step should print as a reference the second time")
	}
	dot := Dot(root)
	if !strings.Contains(dot, "digraph plan") || !strings.Contains(dot, "salmon") {
		t.Error("dot output should highlight rownum nodes")
	}
}

// TestThetaJoinIsAJoin: a value join is an OpJoin — same kind string (it
// is what profiles and the benchmark's Table 2 classes key on), same
// schema — told apart by its mode, its operator and its label.
func TestThetaJoinIsAJoin(t *testing.T) {
	b := NewBuilder()
	l, r := b.EmptyLit("aiter", "aval"), b.EmptyLit("biter", "bval")
	equi := b.Join(l, r, "aval", "bval")
	gt := b.ThetaJoin(l, r, "aval", "bval", xdm.CmpGt, JoinTheta)
	bad := b.ThetaJoin(l, r, "aval", "bval", xdm.CmpGt, JoinIncomparable)
	if equi == gt || gt == bad || gt == b.ThetaJoin(l, r, "aval", "bval", xdm.CmpGe, JoinTheta) {
		t.Error("join mode and operator must be part of the node identity")
	}
	if gt != b.ThetaJoin(l, r, "aval", "bval", xdm.CmpGt, JoinTheta) {
		t.Error("identical θ-joins must share")
	}
	for n, want := range map[*Node]string{equi: "join aval=bval", gt: "join aval > bval", bad: "join incomparable(aval > bval)"} {
		if n.Kind.String() != "join" || Label(n) != want || strings.Join(n.Schema(), ",") != "aiter,aval,biter,bval" {
			t.Errorf("%s %q over %v, want join %q", n.Kind, Label(n), n.Schema(), want)
		}
	}
	if PlanStats(gt).Joins != 1 {
		t.Error("a θ-join counts as a join")
	}
}

func TestUnionDisjointSignatureDiffers(t *testing.T) {
	b := NewBuilder()
	l := b.Lit([]string{"iter"})
	r := b.Lit([]string{"iter"}, []xdm.Item{xdm.NewInt(9)})
	u1 := b.Union(l, r)
	u2 := b.UnionDisjoint(l, r, "iter")
	if u1 == u2 {
		t.Error("disjointness assertion must be part of the node identity")
	}
	if u2.Disj != "iter" {
		t.Errorf("Disj = %q", u2.Disj)
	}
}

// TestInternKeyInjective: two nodes that differ in any structural field
// never share an instance, whatever bytes their strings hold. Every
// variant is a literal table (the one kind whose schema check accepts
// arbitrary parameters) differing from the base in one field; the
// boundary cases move bytes between neighbouring fields, list elements
// and rows, which a separator-joined key cannot tell apart.
func TestInternKeyInjective(t *testing.T) {
	b := NewBuilder()
	x, y := b.Doc("x"), b.Doc("y")
	item := func(s string) []xdm.Item { return []xdm.Item{xdm.NewString(s)} }
	variants := map[string][]func(*Node){
		"Kind": {func(n *Node) { n.Kind = OpDoc }},
		"Ins":  {func(n *Node) { n.Ins = []*Node{x} }, func(n *Node) { n.Ins = []*Node{y} }, func(n *Node) { n.Ins = []*Node{x, y} }},
		"Cols": {func(n *Node) { n.Cols = []string{"a,b"} }, func(n *Node) { n.Cols = []string{"a", "b"} }, func(n *Node) { n.Cols = []string{"a|"} }},
		"Rows": {
			func(n *Node) { n.Rows = [][]xdm.Item{item("p")} },
			func(n *Node) { n.Rows = [][]xdm.Item{item("p"), item("q")} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewString("p"), xdm.NewString("q")}} },
			func(n *Node) { n.Rows = [][]xdm.Item{item("p.xs:string;/sq")} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewUntyped("p")}} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewInt(1)}} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewDouble(1)}} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewBool(true)}} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewNode(xdm.NodeID{Frag: 1, Pre: 2})}} },
			func(n *Node) { n.Rows = [][]xdm.Item{{xdm.NewNode(xdm.NodeID{Frag: 12})}} },
		},
		"Proj": {func(n *Node) { n.Proj = []ColPair{{New: "a<b", Old: "c"}} }, func(n *Node) { n.Proj = []ColPair{{New: "a", Old: "b<c"}} }},
		"Col":  {func(n *Node) { n.Col = "c" }, func(n *Node) { n.Col = "c|d" }},
		"LCol": {func(n *Node) { n.LCol = "c" }, func(n *Node) { n.Col, n.LCol = "c", "d" }},
		"RCol": {func(n *Node) { n.RCol = "c" }},
		"TCol": {func(n *Node) { n.TCol = "c" }},
		"Res":  {func(n *Node) { n.Res = "c" }},
		"Sort": {
			func(n *Node) { n.Sort = []SortSpec{{Col: "c"}} },
			func(n *Node) { n.Sort = []SortSpec{{Col: "c", Desc: true}} },
			func(n *Node) { n.Sort = []SortSpec{{Col: "c", EmptyGreatest: true}} },
			func(n *Node) { n.Sort = []SortSpec{{Col: "c.false.false,d"}} },
			func(n *Node) { n.Sort = []SortSpec{{Col: "c"}, {Col: "d"}} },
		},
		"Part": {func(n *Node) { n.Part = "c" }},
		"BFn":  {func(n *Node) { n.BFn = BArithSub }},
		"Cmp":  {func(n *Node) { n.Cmp = xdm.CmpLt }},
		"Mode": {func(n *Node) { n.Mode = JoinTheta }, func(n *Node) { n.Mode = JoinIncomparable }, func(n *Node) { n.Cmp, n.Mode = xdm.CmpNe, JoinTheta }},
		"UFn":  {func(n *Node) { n.UFn = UnString }},
		"AFn":  {func(n *Node) { n.AFn = AggrSum }},
		"Axis": {func(n *Node) { n.Axis = xquery.AxisDescendant }},
		"Test": {
			func(n *Node) { n.Test = xquery.NodeTest{Kind: xquery.TestNode} },
			func(n *Node) { n.Test = xquery.NodeTest{Kind: xquery.TestName, Name: "node()"} },
		},
		"URI":  {func(n *Node) { n.URI = "c" }, func(n *Node) { n.URI = "c|d" }},
		"Name": {func(n *Node) { n.Name = "c" }, func(n *Node) { n.URI, n.Name = "c", "d" }},
		"Min":  {func(n *Node) { n.Min = 1 }},
		"Max":  {func(n *Node) { n.Max = 1 }, func(n *Node) { n.Max = -1 }},
		"Ser":  {func(n *Node) { n.Ser = 1 }},
		"Disj": {func(n *Node) { n.Disj = "c" }},
		"Tmpl": {
			func(n *Node) { n.Tmpl = []Tmpl{{Kind: TElem, Text: "ab"}} },
			func(n *Node) { n.Tmpl = []Tmpl{{Kind: TElem, Text: "a"}, {Kind: TElem, Text: "b"}} },
			func(n *Node) { n.Tmpl = []Tmpl{{Kind: TAttr, Text: "ab"}} },
			func(n *Node) { n.Tmpl = []Tmpl{{Kind: TContent, Slot: 1}} },
			func(n *Node) { n.Tmpl = []Tmpl{{Kind: TContent, Text: "a", Slot: 1}} },
			func(n *Node) { n.Tmpl = []Tmpl{{Kind: TElem, Text: "a"}, {Kind: TEnd}} },
		},
	}
	notStructural := map[string]bool{"ID": true, "Origin": true, "Par": true, "schema": true}
	typ := reflect.TypeOf(Node{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i).Name; !notStructural[f] && variants[f] == nil {
			t.Errorf("Node.%s has no variant here: is it part of the intern key?", f)
		}
	}

	base := Node{Kind: OpLit, Cols: []string{"a"}}
	seen := map[*Node]string{b.mk(base): "base"}
	for field, muts := range variants {
		for i, mutate := range muts {
			n := base
			mutate(&n)
			got := b.mk(n)
			if prev, dup := seen[got]; dup {
				t.Errorf("%s variant %d shares an instance with %s", field, i, prev)
			}
			seen[got] = field
			if again := b.mk(n); again != got {
				t.Errorf("%s variant %d: equal nodes must share an instance", field, i)
			}
		}
	}
}
