package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// testEnv builds a store with one document and a builder.
func testEnv(t *testing.T, doc string) (*xmltree.Store, map[string][]uint32, *algebra.Builder) {
	t.Helper()
	store := xmltree.NewStore()
	docs := map[string][]uint32{}
	if doc != "" {
		f, err := xmltree.ParseString(doc, "d.xml", xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		docs["d.xml"] = []uint32{store.Add(f)}
	}
	return store, docs, algebra.NewBuilder()
}

// evalDAG evaluates a hand-built DAG kernel by kernel in algebra.Nodes
// order, each shared node once, polling for cancellation per operator:
// the kernel tests' stand-in for the executor loop (internal/vm), which
// they must not depend on.
func evalDAG(ex *Exec, root *algebra.Node) (*Table, error) {
	out := make(map[*algebra.Node]*Table)
	for _, n := range algebra.Nodes(root) {
		if err := ex.CheckCancel(); err != nil {
			return nil, err
		}
		ins := make([]*Table, len(n.Ins))
		for i, in := range n.Ins {
			ins[i] = out[in]
		}
		t, err := ex.EvalOp(n, ins)
		if err != nil {
			return nil, err
		}
		out[n] = t
	}
	return out[root], nil
}

func run(t *testing.T, root *algebra.Node, store *xmltree.Store, docs map[string][]uint32) *Table {
	t.Helper()
	tab, err := evalDAG(NewExec(store, docs, Options{}), root)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return tab
}

func ints(vals ...int64) []xdm.Item {
	out := make([]xdm.Item, len(vals))
	for i, v := range vals {
		out[i] = xdm.NewInt(v)
	}
	return out
}

func colInts(t *testing.T, tab *Table, col string) []int64 {
	t.Helper()
	c := tab.Col(col)
	out := make([]int64, c.Len())
	for i := range out {
		out[i] = c.Get(i).I
	}
	return out
}

func litTable(b *algebra.Builder, col string, vals ...int64) *algebra.Node {
	rows := make([][]xdm.Item, len(vals))
	for i, v := range vals {
		rows[i] = []xdm.Item{xdm.NewInt(v)}
	}
	return b.Lit([]string{col}, rows...)
}

func TestRowNumSortsAndNumbersPerGroup(t *testing.T) {
	store, docs, b := testEnv(t, "")
	// (iter, val): two groups with shuffled values.
	lit := b.Lit([]string{"iter", "val"},
		ints(2, 30), ints(1, 20), ints(1, 10), ints(2, 5))
	rn := b.RowNum(lit, "rank", []algebra.SortSpec{{Col: "val"}}, "iter")
	tab := run(t, rn, store, docs)
	// Physically sorted by (iter, val) with dense per-group ranks.
	if got := colInts(t, tab, "iter"); got[0] != 1 || got[1] != 1 || got[2] != 2 || got[3] != 2 {
		t.Errorf("iter order: %v", got)
	}
	if got := colInts(t, tab, "val"); got[0] != 10 || got[1] != 20 || got[2] != 5 || got[3] != 30 {
		t.Errorf("val order: %v", got)
	}
	if got := colInts(t, tab, "rank"); got[0] != 1 || got[1] != 2 || got[2] != 1 || got[3] != 2 {
		t.Errorf("ranks: %v", got)
	}
}

func TestRowNumDescendingAndNullPlacement(t *testing.T) {
	store, docs, b := testEnv(t, "")
	lit := b.Lit([]string{"k"},
		[]xdm.Item{xdm.NewInt(1)}, []xdm.Item{xdm.Null}, []xdm.Item{xdm.NewInt(3)})
	// Null (absent order key) sorts below everything by default…
	rn := b.RowNum(lit, "r", []algebra.SortSpec{{Col: "k"}}, "")
	tab := run(t, rn, store, docs)
	if k := tab.Col("k"); k.Get(0).Kind != xdm.KNull || k.Get(1).I != 1 || k.Get(2).I != 3 {
		t.Errorf("empty-least order: %v", k)
	}
	// …and above everything with EmptyGreatest; Desc flips values only.
	rn2 := b.RowNum(lit, "r", []algebra.SortSpec{{Col: "k", Desc: true, EmptyGreatest: true}}, "")
	tab2 := run(t, rn2, store, docs)
	if k := tab2.Col("k"); k.Get(0).Kind != xdm.KNull || k.Get(1).I != 3 || k.Get(2).I != 1 {
		t.Errorf("desc empty-greatest order: %v", k)
	}
}

func TestRowIDStampsWithoutReordering(t *testing.T) {
	store, docs, b := testEnv(t, "")
	lit := litTable(b, "v", 30, 10, 20)
	tab := run(t, b.RowID(lit, "id"), store, docs)
	if got := colInts(t, tab, "v"); got[0] != 30 || got[1] != 10 || got[2] != 20 {
		t.Errorf("rowid must not reorder: %v", got)
	}
	if got := colInts(t, tab, "id"); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("ids: %v", got)
	}
}

func TestJoinDuplicatesAndTypes(t *testing.T) {
	store, docs, b := testEnv(t, "")
	l := b.Lit([]string{"a"}, ints(1), ints(2), ints(2))
	r := b.Lit([]string{"b", "x"}, ints(2, 100), ints(2, 200), ints(3, 300))
	j := b.Join(l, r, "a", "b")
	tab := run(t, j, store, docs)
	if tab.NumRows() != 4 { // 2 l-rows × 2 r-rows
		t.Errorf("join rows: %d", tab.NumRows())
	}
	// Mixed-type keys fall back to generic hashing.
	ls := b.Lit([]string{"a"}, []xdm.Item{xdm.NewString("k")}, ints(7))
	rs := b.Lit([]string{"b"}, []xdm.Item{xdm.NewString("k")})
	tab2 := run(t, b.Join(ls, rs, "a", "b"), store, docs)
	if tab2.NumRows() != 1 {
		t.Errorf("string join rows: %d", tab2.NumRows())
	}
}

// TestJoinPollsByPairsEmitted: the join kernel polls for cancellation in
// proportion to its work — rows hashed on the build side, pairs emitted on
// the probe side — so neither a huge build input nor a high-fan-out key
// (few left rows, millions of pairs) is a cancellation blind spot.
func TestJoinPollsByPairsEmitted(t *testing.T) {
	polls := 0
	ex := NewExec(xmltree.NewStore(), nil, Options{StoreProbe: func() error { polls++; return nil }})

	const buildRows = 4 * probeChunk
	rk := xdm.IntColumn(make([]int64, buildRows)) // one key: fan-out = buildRows
	ix, err := ex.BuildJoinIndex(rk)
	if err != nil {
		t.Fatal(err)
	}
	if polls < buildRows/probeChunk {
		t.Errorf("build of %d rows polled %d times, want >= %d", buildRows, polls, buildRows/probeChunk)
	}

	const leftRows = 8
	polls = 0
	lperm, rperm, err := ex.ProbeJoin(ix, xdm.IntColumn(make([]int64, leftRows)), 0, leftRows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(lperm) != leftRows*buildRows || len(rperm) != len(lperm) {
		t.Fatalf("probe emitted %d/%d pairs, want %d", len(lperm), len(rperm), leftRows*buildRows)
	}
	if polls < leftRows {
		t.Errorf("probe emitting %d pairs polled %d times, want one per left row (%d)", len(lperm), polls, leftRows)
	}
}

func TestSemiDiffDistinct(t *testing.T) {
	store, docs, b := testEnv(t, "")
	l := litTable(b, "k", 1, 2, 3, 2)
	r := litTable(b, "k", 2, 4)
	if got := run(t, b.Semi(l, r, "k"), store, docs); got.NumRows() != 2 {
		t.Errorf("semi rows: %d", got.NumRows())
	}
	if got := run(t, b.Diff(l, r, "k"), store, docs); got.NumRows() != 2 {
		t.Errorf("diff rows: %d", got.NumRows())
	}
	d := run(t, b.Distinct(l, "k"), store, docs)
	if got := colInts(t, d, "k"); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("distinct keeps first occurrences: %v", got)
	}
}

func TestAggregates(t *testing.T) {
	store, docs, b := testEnv(t, "")
	in := b.Lit([]string{"iter", "item"},
		ints(1, 5), ints(1, 7), ints(2, 100))
	cnt := run(t, b.Aggr(in, algebra.AggrCount, "res", "", "iter"), store, docs)
	if got := colInts(t, cnt, "res"); got[0] != 2 || got[1] != 1 {
		t.Errorf("counts: %v", got)
	}
	sum := run(t, b.Aggr(in, algebra.AggrSum, "res", "item", "iter"), store, docs)
	if got := colInts(t, sum, "res"); got[0] != 12 || got[1] != 100 {
		t.Errorf("sums: %v", got)
	}
	mx := run(t, b.Aggr(in, algebra.AggrMax, "res", "item", "iter"), store, docs)
	if got := colInts(t, mx, "res"); got[0] != 7 || got[1] != 100 {
		t.Errorf("max: %v", got)
	}
}

func TestAggrEbvSemantics(t *testing.T) {
	store, docs, b := testEnv(t, "")
	node := xdm.NewNode(xdm.NodeID{Frag: 0, Pre: 0})
	in := b.Lit([]string{"iter", "item"},
		[]xdm.Item{xdm.NewInt(1), xdm.True},
		[]xdm.Item{xdm.NewInt(2), node},
		[]xdm.Item{xdm.NewInt(2), node},
		[]xdm.Item{xdm.NewInt(3), xdm.NewString("")})
	tab := run(t, b.Aggr(in, algebra.AggrEbv, "res", "item", "iter"), store, docs)
	res := tab.Col("res")
	if !res.Get(0).Bool() || !res.Get(1).Bool() || res.Get(2).Bool() {
		t.Errorf("ebv results: %v", res)
	}
	// Multi-item atomic groups are a dynamic error.
	bad := b.Lit([]string{"iter", "item"}, ints(1, 1), ints(1, 2))
	ex := NewExec(store, docs, Options{})
	if _, err := evalDAG(ex, b.Aggr(bad, algebra.AggrEbv, "res", "item", "iter")); err == nil {
		t.Error("expected EBV error for multi-item atomic group")
	}
}

func TestStepStaircasePruning(t *testing.T) {
	// Nested context nodes: descendants must be emitted once, in document
	// order, despite overlapping subtrees.
	store, docs, b := testEnv(t, `<r><s><s><x/><s><x/></s></s></s><x/></r>`)
	// Context: both s elements at different depths plus the root.
	doc := b.Doc("d.xml")
	ctx0 := b.Cross(b.LitCol("iter", xdm.NewInt(1)), doc)
	sAll := b.Step(ctx0, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestName, Name: "s"})
	xs := b.Step(sAll, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestName, Name: "x"})
	tab := run(t, xs, store, docs)
	if tab.NumRows() != 2 {
		t.Fatalf("descendant x from nested s contexts: %d rows, want 2", tab.NumRows())
	}
	items := tab.Col("item")
	if !items.Get(0).N.Before(items.Get(1).N) {
		t.Error("step output not in document order")
	}
}

func TestStepAxes(t *testing.T) {
	store, docs, b := testEnv(t, `<r a="1"><b><c/></b><b/>text</r>`)
	doc := b.Doc("d.xml")
	ctx := b.Cross(b.LitCol("iter", xdm.NewInt(1)), doc)
	r := b.Step(ctx, xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "r"})
	cases := []struct {
		axis xquery.Axis
		test xquery.NodeTest
		want int
	}{
		{xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "b"}, 2},
		{xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestNode}, 3},
		{xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestText}, 1},
		{xquery.AxisAttribute, xquery.NodeTest{Kind: xquery.TestWild}, 1},
		{xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestWild}, 3},
		{xquery.AxisDescendantOrSelf, xquery.NodeTest{Kind: xquery.TestWild}, 4},
		{xquery.AxisSelf, xquery.NodeTest{Kind: xquery.TestName, Name: "r"}, 1},
		{xquery.AxisParent, xquery.NodeTest{Kind: xquery.TestNode}, 1},
	}
	for _, tc := range cases {
		tab := run(t, b.Step(r, tc.axis, tc.test), store, docs)
		if tab.NumRows() != tc.want {
			t.Errorf("%s::%s: %d rows, want %d", tc.axis, tc.test, tab.NumRows(), tc.want)
		}
	}
}

func TestCheckCardViolations(t *testing.T) {
	store, docs, b := testEnv(t, "")
	in := b.Lit([]string{"iter"}, ints(1), ints(1))
	ex := NewExec(store, docs, Options{})
	if _, err := evalDAG(ex, b.CheckCard(in, nil, "iter", 0, 1, "test")); err == nil {
		t.Error("expected max-cardinality error")
	}
	loop := litTable(b, "iter", 1, 2)
	if _, err := evalDAG(ex, b.CheckCard(in, loop, "iter", 1, -1, "test")); err == nil {
		t.Error("expected min-cardinality error for missing iteration 2")
	}
	if _, err := evalDAG(ex, b.CheckCard(in, nil, "iter", 0, -1, "test")); err != nil {
		t.Errorf("unbounded check failed: %v", err)
	}
}

func TestTimeoutCutoff(t *testing.T) {
	store, docs, b := testEnv(t, "")
	// Build a long chain of operators to guarantee at least one deadline check fires.
	n := litTable(b, "v", 1, 2, 3)
	for i := 0; i < 64; i++ {
		n = b.RowID(n, "c"+string(rune('A'+i%26))+string(rune('0'+i/26)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := evalDAG(NewExec(store, docs, Options{Context: ctx}), b.Keep(n, "v"))
	if err == nil || !strings.Contains(err.Error(), "cutoff") {
		t.Errorf("expected cutoff error, got %v", err)
	}
}

func TestUnknownDocument(t *testing.T) {
	store, docs, b := testEnv(t, "")
	d := b.Doc("missing.xml")
	ex := NewExec(store, docs, Options{})
	if _, err := evalDAG(ex, d); err == nil {
		t.Error("expected unknown-document error")
	}
}

func TestMemoizationSharedNodesEvaluateOnce(t *testing.T) {
	store, docs, b := testEnv(t, `<r><x/><x/></r>`)
	doc := b.Doc("d.xml")
	ctx := b.Cross(b.LitCol("iter", xdm.NewInt(1)), doc)
	step := b.Step(ctx, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestName, Name: "x"})
	// Two consumers of the same step node.
	u := b.Union(b.Keep(step, "iter", "item"), b.Keep(step, "iter", "item"))
	steps := 0
	EvalHook = func(n *algebra.Node) {
		if n.Kind == algebra.OpStep {
			steps++
		}
	}
	defer func() { EvalHook = nil }()
	if _, err := evalDAG(NewExec(store, docs, Options{}), u); err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Errorf("shared step evaluated %d times", steps)
	}
}
