package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Allocation regression bounds for the typed column kernels. The bounds
// are deliberately loose (2-4x the measured counts) so they only trip on
// a regression back to per-row boxing, not on incidental churn; run with
// -run TestAlloc -v to see the measured values.

// TestAllocJoinProbeIntKeys pins the int64-keyed hash join probe: with
// reused perm buffers the probe loop itself must not allocate per row.
func TestAllocJoinProbeIntKeys(t *testing.T) {
	const rows = 4096
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i % 97)
	}
	rk := xdm.IntColumn(append([]int64(nil), keys...))
	lk := xdm.IntColumn(append([]int64(nil), keys...))
	ix := BuildJoinIndex(rk)
	var lp, rp []int32
	lp, rp = ix.Probe(lk, 0, rows, nil, nil) // size the buffers once
	avg := testing.AllocsPerRun(20, func() {
		lp, rp = ix.Probe(lk, 0, rows, lp[:0], rp[:0])
	})
	if avg > 1 {
		t.Errorf("int-key probe allocates %.1f times per probe of %d rows, want <= 1", avg, rows)
	}
	if len(lp) != len(rp) || len(lp) == 0 {
		t.Fatalf("probe produced %d/%d pairs", len(lp), len(rp))
	}
}

// TestAllocJoinIndex pins the index layout: building over 4096 dense keys
// and probing them allocates the index header and nothing per key or per
// row — the offsets, rows and slot buffers come from (and return to) the
// pool.
func TestAllocJoinIndex(t *testing.T) {
	const rows = 4096
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64((i*7)%rows + 1) // a permutation of 1…rows
	}
	rk := xdm.IntColumn(append([]int64(nil), keys...))
	lk := xdm.IntColumn(append([]int64(nil), keys...))
	pairs := 0
	avg := testing.AllocsPerRun(20, func() {
		ix := BuildJoinIndex(rk)
		lp, rp := ix.Probe(lk, 0, rows, nil, nil)
		pairs = len(lp)
		xdm.PutInt32s(lp)
		xdm.PutInt32s(rp)
		ix.Release()
	})
	if pairs != rows {
		t.Fatalf("probe produced %d pairs, want %d", pairs, rows)
	}
	if avg > 16 {
		t.Errorf("build + probe of %d dense keys allocates %.1f times, want <= 16 (row-independent)", rows, avg)
	}
	t.Logf("%.1f allocs per build + probe", avg)
}

// TestAllocDistinctSemiIntKeys pins δ, semijoin and difference to the
// group index: no Go map and no key string per row. The key columns are
// those of compiled plans — iter and (aiter, biter), and the (iter, node)
// and (iter, untyped) pairs of path and distinct-values deduplication.
// Index and output buffers come from the pool, so a call allocates below
// 16 bytes per row (~1 KB for 4096 rows; an output string column's cells,
// which the pool does not hold, add 16 bytes per kept row); the map-based
// kernels allocated 180–350 KB.
func TestAllocDistinctSemiIntKeys(t *testing.T) {
	const rows = 4096
	a, b := make([]int64, rows), make([]int64, rows)
	nodes, strs := make([]xdm.NodeID, rows), make([]string, rows)
	vals := []string{"a", "b", "c"}
	for i := range a {
		a[i], b[i] = int64(i%1024+1), int64(i%3)
		nodes[i], strs[i] = xdm.NodeID{Frag: 1, Pre: int32(i % 512)}, vals[i%3]
	}
	in := NewTable([]string{"iter", "biter", "node", "av"})
	in.Data[0], in.Data[1] = xdm.IntColumn(a), xdm.IntColumn(b)
	in.Data[2], in.Data[3] = xdm.NodeColumn(nodes), xdm.StringColumn(xdm.KUntyped, strs)
	ab := algebra.NewBuilder()
	lit := ab.EmptyLit("iter", "biter", "node", "av")
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	allocBound, byteBound := 24.0, uint64(16*rows)
	if raceEnabled {
		// The race detector's pool drops buffers at random, so a call
		// pays for some of its pooled key and index buffers.
		allocBound, byteBound = 32, 40*rows
	}
	for _, tc := range []struct {
		n    *algebra.Node
		want int
	}{
		{ab.Distinct(lit, "iter"), 1024},
		{ab.Distinct(lit, "iter", "biter"), 3072},
		{ab.Semi(lit, lit, "iter"), rows},
		{ab.Diff(lit, lit, "iter", "biter"), 0},
		{ab.Distinct(lit, "iter", "node"), 1024},
		{ab.Semi(lit, lit, "iter", "node"), rows},
		{ab.Distinct(lit, "iter", "av"), 3072},
		{ab.Diff(lit, lit, "iter", "av"), 0},
	} {
		name := fmt.Sprintf("%s %v", tc.n.Kind, tc.n.Cols)
		keyed := NewTable(tc.n.Cols)
		for i, c := range tc.n.Cols {
			keyed.Data[i] = in.Col(c)
		}
		run := func() {
			var out *Table
			var err error
			if tc.n.Kind == algebra.OpDistinct {
				out, err = ex.evalDistinct(tc.n, keyed)
			} else {
				out, err = ex.evalSemiDiff(tc.n, keyed, keyed)
			}
			if err != nil || out.NumRows() != tc.want {
				t.Fatalf("%s: %d rows, err %v, want %d", name, out.NumRows(), err, tc.want)
			}
			for _, c := range out.Data {
				xdm.RecycleColumn(c) // return the buffers: steady-state pooling
			}
		}
		run() // warm the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		avg := testing.AllocsPerRun(20, run)
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / 21
		if avg > allocBound || bytes > byteBound {
			t.Errorf("%s over %d rows allocates %.1f times, %d bytes per call, want <= %.0f and <= %d", name, rows, avg, bytes, allocBound, byteBound)
		}
		t.Logf("%s: %.1f allocs, %d bytes per call", name, avg, bytes)
	}
}

// TestAllocApplyBinArithmetic pins the boxed arithmetic row kernel: an
// integer × untyped multiplication coerces and multiplies without
// allocating (it once built a map literal per row).
func TestAllocApplyBinArithmetic(t *testing.T) {
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	b := algebra.NewBuilder()
	n := b.BinOp(b.EmptyLit("a", "b"), algebra.BArithMul, 0, "r", "a", "b")
	x, y := xdm.NewInt(5000), xdm.NewUntyped("12.5")
	avg := testing.AllocsPerRun(100, func() {
		if v, err := ex.applyBinFn(n, x, y); err != nil || v.F != 62500 {
			t.Fatalf("5000 * '12.5' = %v, %v", v, err)
		}
	})
	if avg != 0 {
		t.Errorf("applyBinFn integer × untyped allocates %.1f times per row, want 0", avg)
	}
}

// TestAllocRowIDStamp pins the # stamp: one pooled integer buffer and a
// constant handful of wrapper allocations, independent of row count.
func TestAllocRowIDStamp(t *testing.T) {
	const rows = 8192
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rows - i)
	}
	tab := NewTable([]string{"v"})
	tab.Data[0] = xdm.IntColumn(vals)
	avg := testing.AllocsPerRun(20, func() {
		out := tab.WithColumn("id", xdm.IntColumn(stampInts(rows)))
		xdm.RecycleColumn(out.Col("id")) // return the buffer: steady-state pooling
	})
	// Pool hit: the int buffer is recycled, leaving only the Column
	// wrapper and the table's slice/index copies.
	if avg > 12 {
		t.Errorf("# stamp allocates %.1f times for %d rows, want <= 12 (row-independent)", avg, rows)
	}
}

// stampInts is the OpRowID kernel body, isolated for the bound.
func stampInts(rows int) []int64 {
	num := xdm.GetInts(rows)
	for i := range num {
		num[i] = int64(i + 1)
	}
	return num
}

// TestAllocConstructIterations pins the constructor: building 4096
// elements (each with a copy of a small subtree) or 4096 elements with an
// attribute allocates the same handful of times as building one — the
// slab's columns and the output wrappers, not a builder and a fragment
// per constructed node. (One iteration misses the pool: its buffers are
// below the pooled size, so it allocates a few more than 4096 do.)
func TestAllocConstructIterations(t *testing.T) {
	bound := 16.0
	if raceEnabled {
		bound = 24
	}
	doc := xmltree.MustParseString(`<r><c k="v">t</c></r>`)
	store := xmltree.NewStore()
	c := xdm.NodeID{Frag: store.Add(doc), Pre: 2} // doc=0, r=1, c=2
	ab := algebra.NewBuilder()
	slot := ab.EmptyLit("iter", "pos", "item")
	elem := ab.Elem([]algebra.Tmpl{{Kind: algebra.TElem, Text: "e"}, {Kind: algebra.TContent, Slot: 1}, {Kind: algebra.TEnd}}, ab.EmptyLit("iter"), slot)
	attr := ab.Elem([]algebra.Tmpl{{Kind: algebra.TElem, Text: "e"}, {Kind: algebra.TAttr, Text: "a"}, {Kind: algebra.TValue, Slot: 1}, {Kind: algebra.TEnd}}, ab.EmptyLit("iter"), slot)
	ex := NewExec(store, nil, Options{})
	for _, rows := range []int{1, 4096} {
		iters, poss := make([]int64, rows), make([]int64, rows)
		nodes, strs := make([]xdm.NodeID, rows), make([]string, rows)
		for i := range iters {
			iters[i], poss[i], nodes[i], strs[i] = int64(i+1), 1, c, "v"
		}
		loop := NewTable([]string{"iter"})
		loop.Data[0] = xdm.IntColumn(iters)
		content := NewTable([]string{"iter", "pos", "item"})
		content.Data[0], content.Data[1], content.Data[2] = xdm.IntColumn(iters), xdm.IntColumn(poss), xdm.NodeColumn(nodes)
		vals := NewTable([]string{"iter", "pos", "item"})
		vals.Data[0], vals.Data[1], vals.Data[2] = xdm.IntColumn(iters), xdm.IntColumn(poss), xdm.StringColumn(xdm.KString, strs)
		for name, run := range map[string]func() (*Table, error){
			"evalElem content":   func() (*Table, error) { return ex.evalElem(elem, []*Table{loop, content}) },
			"evalElem attribute": func() (*Table, error) { return ex.evalElem(attr, []*Table{loop, vals}) },
		} {
			avg := testing.AllocsPerRun(20, func() {
				out, err := run()
				if err != nil || out.NumRows() != rows {
					t.Fatalf("%s over %d iterations: %d rows, err %v", name, rows, out.NumRows(), err)
				}
				xdm.RecycleColumn(out.Col("item")) // return the buffer: steady-state pooling
			})
			if avg > bound {
				t.Errorf("%s over %d iterations allocates %.1f times, want <= %.0f (iteration-independent)", name, rows, avg, bound)
			}
			t.Logf("%s over %d iterations: %.1f allocs", name, rows, avg)
		}
	}
}

// TestAllocStepIterations pins the step kernel: child::name over 4096
// single-context iterations and over one iteration of 4096 contexts must
// both allocate a handful of times, whatever the row count — grouping
// builds no per-iteration map or group, and the scans append straight
// into pooled output columns.
func TestAllocStepIterations(t *testing.T) {
	const rows = 4096
	b := xmltree.NewBuilder()
	b.StartDoc("d.xml")
	b.StartElem("r")
	for i := 0; i < rows; i++ {
		b.StartElem("p")
		b.StartElem("c")
		b.EndElem()
		b.StartElem("d")
		b.EndElem()
		b.EndElem()
	}
	doc := b.Close()
	store := xmltree.NewStore()
	frag := store.Add(doc)
	ps := make([]xdm.NodeID, 0, rows)
	for _, p := range doc.Children(1) {
		ps = append(ps, xdm.NodeID{Frag: frag, Pre: p})
	}
	perIter, oneIter := make([]int64, rows), make([]int64, rows)
	for i := range perIter {
		perIter[i], oneIter[i] = int64(i+1), 1
	}
	ab := algebra.NewBuilder()
	n := ab.Step(ab.EmptyLit("iter", "item"), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestName, Name: "c"})
	ex := NewExec(store, nil, Options{})
	for name, iters := range map[string][]int64{"4096 iterations x 1 context": perIter, "1 iteration x 4096 contexts": oneIter} {
		in := NewTable([]string{"iter", "item"})
		in.Data[0], in.Data[1] = xdm.IntColumn(iters), xdm.NodeColumn(ps)
		avg := testing.AllocsPerRun(20, func() {
			out, err := ex.evalStep(n, in)
			if err != nil || out.NumRows() != rows {
				t.Fatalf("%s: %d rows, err %v", name, out.NumRows(), err)
			}
			xdm.RecycleColumn(out.Col("iter")) // return the buffers: steady-state pooling
			xdm.RecycleColumn(out.Col("item"))
		})
		if avg > 16 {
			t.Errorf("%s: evalStep allocates %.1f times, want <= 16 (row-independent)", name, avg)
		}
		t.Logf("%s: %.1f allocs per evalStep", name, avg)
	}
}

// TestAllocRowNumSorted pins ρ over input already in (part, criterion)
// order: sortByKeys' scan finds it, so no permutation is built, the input
// columns pass through untouched, and the allocations are a
// row-independent handful (the key slice header, the rank column, the
// output table).
func TestAllocRowNumSorted(t *testing.T) {
	const rows = 8192
	iter, pos := make([]int64, rows), make([]int64, rows)
	for i := range iter {
		iter[i], pos[i] = int64(i/16), int64(i%16)
	}
	in := NewTable([]string{"iter", "pos"})
	in.Data[0], in.Data[1] = xdm.IntColumn(iter), xdm.IntColumn(pos)
	b := algebra.NewBuilder()
	n := b.RowNum(b.EmptyLit("iter", "pos"), "rank", []algebra.SortSpec{{Col: "pos"}}, "iter")
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	out, err := ex.evalRowNum(n, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Col("iter") != in.Col("iter") || out.Col("pos") != in.Col("pos") {
		t.Error("ρ over sorted input permuted its columns")
	}
	if rank := out.Col("rank"); rank.Get(0).I != 1 || rank.Get(15).I != 16 || rank.Get(16).I != 1 {
		t.Errorf("ranks %v…, want 1…16 per iter", rank.Get(15))
	}
	avg := testing.AllocsPerRun(20, func() {
		out, _ := ex.evalRowNum(n, in)
		xdm.RecycleColumn(out.Col("rank")) // steady-state pooling
	})
	if avg > 12 {
		t.Errorf("ρ over sorted input allocates %.1f times for %d rows, want <= 12 (row-independent)", avg, rows)
	}
}
