package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// The step kernel (grouping, staircase pruning, postings) is pinned here
// to a reference that knows none of it: per context node, filter what
// Fragment.Descendants/Children/Attributes/Parent return, then sort and
// deduplicate per iteration.

var stepAxes = []xquery.Axis{
	xquery.AxisChild, xquery.AxisDescendant, xquery.AxisDescendantOrSelf,
	xquery.AxisAttribute, xquery.AxisSelf, xquery.AxisParent,
}

// sharedNames has an attribute and an element named x, and one of each
// named id, nested same-name elements, and text between elements.
const sharedNames = `<r id="1" x="a"><x id="2"><id>t</id><x/></x><y x="b"/>text<x><x><x/></x></x></r>`

func stepTests(names ...string) []xquery.NodeTest {
	ts := []xquery.NodeTest{{Kind: xquery.TestWild}, {Kind: xquery.TestText}, {Kind: xquery.TestNode}}
	for _, n := range names {
		ts = append(ts, xquery.NodeTest{Kind: xquery.TestName, Name: n})
	}
	return ts
}

func naiveMatch(f *xmltree.Fragment, v int32, axis xquery.Axis, test xquery.NodeTest) bool {
	principal := xmltree.KindElem
	if axis == xquery.AxisAttribute {
		principal = xmltree.KindAttr
	}
	switch test.Kind {
	case xquery.TestNode:
		return true
	case xquery.TestText:
		return f.Kind[v] == xmltree.KindText
	case xquery.TestWild:
		return f.Kind[v] == principal
	default:
		return f.Kind[v] == principal && f.NodeName(v) == test.Name
	}
}

// naiveAxis is the reference for one context set in one fragment.
func naiveAxis(f *xmltree.Fragment, ctx []int32, axis xquery.Axis, test xquery.NodeTest) []int32 {
	out := []int32{}
	for _, v := range ctx {
		var cands []int32
		switch axis {
		case xquery.AxisChild:
			cands = f.Children(v)
		case xquery.AxisDescendant:
			cands = f.Descendants(v)
		case xquery.AxisDescendantOrSelf:
			cands = append([]int32{v}, f.Descendants(v)...)
		case xquery.AxisAttribute:
			cands = f.Attributes(v)
		case xquery.AxisSelf:
			cands = []int32{v}
		case xquery.AxisParent:
			if p := f.Parent[v]; p >= 0 {
				cands = []int32{p}
			}
		}
		for _, c := range cands {
			if naiveMatch(f, c, axis, test) {
				out = append(out, c)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// naiveStep is the reference for a whole (iter, item) context table:
// iterations in first-occurrence order, fragments ascending within each.
func naiveStep(store *xmltree.Store, iters []int64, nodes []xdm.NodeID, axis xquery.Axis, test xquery.NodeTest) ([]int64, []xdm.NodeID) {
	var order []int64
	byIter := map[int64]map[uint32][]int32{}
	for r, it := range iters {
		if byIter[it] == nil {
			byIter[it] = map[uint32][]int32{}
			order = append(order, it)
		}
		byIter[it][nodes[r].Frag] = append(byIter[it][nodes[r].Frag], nodes[r].Pre)
	}
	outIter, outItem := []int64{}, []xdm.NodeID{}
	for _, it := range order {
		var frags []uint32
		for fid := range byIter[it] {
			frags = append(frags, fid)
		}
		slices.Sort(frags)
		for _, fid := range frags {
			for _, pre := range naiveAxis(store.Frag(fid), byIter[it][fid], axis, test) {
				outIter = append(outIter, it)
				outItem = append(outItem, xdm.NodeID{Frag: fid, Pre: pre})
			}
		}
	}
	return outIter, outItem
}

// wrapCopy copies a document's tree into a constructed, element-rooted
// fragment: the same nodes at the same preorder ranks (rank 0 is a wrap
// element instead of the document node), but no postings.
func wrapCopy(doc *xmltree.Fragment) *xmltree.Fragment {
	b := xmltree.NewBuilder()
	b.StartElem("wrap")
	for _, c := range doc.Children(0) {
		b.CopySubtree(doc, c)
	}
	return b.Close()
}

// stepStore holds an XMark document, the shared-names document, and three
// constructed fragments: an unindexed copy of each plus a free attribute.
func stepStore(t testing.TB) *xmltree.Store {
	t.Helper()
	store := xmltree.NewStore()
	auction := xmark.Generate(xmark.Config{Factor: 0.002})
	shared := xmltree.MustParseString(sharedNames)
	for _, f := range []*xmltree.Fragment{auction, shared, wrapCopy(auction), wrapCopy(shared)} {
		if err := xmltree.Validate(f); err != nil {
			t.Fatal(err)
		}
		store.Add(f)
	}
	store.Add(&xmltree.Fragment{
		Kind: []xmltree.NodeKind{xmltree.KindAttr}, Name: []uint32{1}, Names: []string{"", "x"},
		Value: []string{"v"}, Size: []int32{0}, Level: []int32{0}, Parent: []int32{-1},
	})
	return store
}

type ctxTable struct {
	name  string
	iters []int64
	nodes []xdm.NodeID
}

// ctxTables draws the context-table shapes the kernel must not care about.
func ctxTables(store *xmltree.Store, rng *rand.Rand) []ctxTable {
	anyNode := func(frag uint32) xdm.NodeID {
		return xdm.NodeID{Frag: frag, Pre: int32(rng.Intn(store.Frag(frag).Len()))}
	}
	random := func(name string, rows, iters int) ctxTable {
		t := ctxTable{name: name}
		for r := 0; r < rows; r++ {
			t.iters = append(t.iters, int64(1+rng.Intn(iters)))
			t.nodes = append(t.nodes, anyNode(uint32(rng.Intn(store.Len()))))
		}
		return t
	}
	unsorted := random("unsorted, several fragments", 40, 3)
	dups := random("duplicates", 20, 2)
	dups.iters = append(dups.iters, dups.iters...)
	dups.nodes = append(dups.nodes, dups.nodes...)

	nested := ctxTable{name: "node and its own descendants"}
	for len(nested.nodes) < 30 {
		n := anyNode(uint32(rng.Intn(2)))
		if size := store.Frag(n.Frag).Size[n.Pre]; size > 0 {
			d := xdm.NodeID{Frag: n.Frag, Pre: n.Pre + 1 + int32(rng.Intn(int(size)))}
			nested.nodes = append(nested.nodes, d, n)
			nested.iters = append(nested.iters, 1, 1)
		}
	}

	inter := ctxTable{name: "interleaved iterations"}
	for i := 0; i < 8; i++ {
		for _, it := range []int64{3, 1, 3, 2, 1} {
			inter.iters = append(inter.iters, it)
			inter.nodes = append(inter.nodes, anyNode(uint32(rng.Intn(2))))
		}
	}

	// What a preceding step leaves: iterations ascending, nodes strictly
	// ascending within each.
	clustered := ctxTable{name: "clustered"}
	for it := int64(1); it <= 2; it++ {
		for frag := uint32(0); frag < 3; frag++ {
			f := store.Frag(frag)
			for pre := int32(rng.Intn(3)); int(pre) < f.Len(); pre += 1 + int32(rng.Intn(12)) {
				clustered.iters = append(clustered.iters, it)
				clustered.nodes = append(clustered.nodes, xdm.NodeID{Frag: frag, Pre: pre})
			}
		}
	}
	shuffled := ctxTable{name: "clustered, shuffled", iters: slices.Clone(clustered.iters), nodes: slices.Clone(clustered.nodes)}
	rng.Shuffle(len(shuffled.nodes), func(a, b int) {
		shuffled.iters[a], shuffled.iters[b] = shuffled.iters[b], shuffled.iters[a]
		shuffled.nodes[a], shuffled.nodes[b] = shuffled.nodes[b], shuffled.nodes[a]
	})
	roots := ctxTable{name: "fragment roots", iters: []int64{7, 7, 7, 5}, nodes: []xdm.NodeID{{Frag: 2}, {Frag: 0}, {Frag: 4}, {Frag: 1}}}
	return []ctxTable{unsorted, dups, nested, inter, clustered, shuffled, roots, {name: "empty"}}
}

func (c ctxTable) table(boxed bool) *Table {
	t := NewTable([]string{"iter", "item"})
	t.Data[0] = xdm.IntColumn(slices.Clone(c.iters))
	if boxed {
		items := make([]xdm.Item, len(c.nodes))
		for i, n := range c.nodes {
			items[i] = xdm.NewNode(n)
		}
		t.Data[1] = xdm.ItemColumn(items)
	} else {
		t.Data[1] = xdm.NodeColumn(slices.Clone(c.nodes))
	}
	return t
}

func stepCells(t *Table) ([]int64, []xdm.NodeID) {
	iters, items := []int64{}, []xdm.NodeID{}
	for r := 0; r < t.NumRows(); r++ {
		iters = append(iters, t.Col("iter").Get(r).I)
		items = append(items, t.Col("item").Get(r).N)
	}
	return iters, items
}

// TestStepKernelMatchesNaive is the seeded property: every table shape ×
// flat/boxed × axis × node test, through the step kernel, equals the
// naive reference.
func TestStepKernelMatchesNaive(t *testing.T) {
	store := stepStore(t)
	b := algebra.NewBuilder()
	in := b.EmptyLit("iter", "item")
	for seed := int64(1); seed <= 2; seed++ {
		for _, ct := range ctxTables(store, rand.New(rand.NewSource(seed))) {
			for _, axis := range stepAxes {
				for _, test := range stepTests("x", "id", "item", "nosuchname") {
					wantIter, wantItem := naiveStep(store, ct.iters, ct.nodes, axis, test)
					n := b.Step(in, axis, test)
					for _, boxed := range []bool{false, true} {
						label := fmt.Sprintf("seed %d, %s (boxed=%v), %s::%s", seed, ct.name, boxed, axis, test)
						ex := NewExec(store, nil, Options{})
						got, err := ex.EvalOp(n, []*Table{ct.table(boxed)})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						gotIter, gotItem := stepCells(got)
						if !slices.Equal(gotIter, wantIter) || !slices.Equal(gotItem, wantItem) {
							t.Fatalf("%s: kernel differs from the naive reference\n got %v %v\nwant %v %v", label, gotIter, gotItem, wantIter, wantItem)
						}
					}
				}
			}
		}
	}
}

// TestStepOverAtomic: an atomic among the context items is the existing
// error, whatever the column representation.
func TestStepOverAtomic(t *testing.T) {
	store := stepStore(t)
	b := algebra.NewBuilder()
	n := b.Step(b.EmptyLit("iter", "item"), xquery.AxisChild, xquery.NodeTest{Kind: xquery.TestWild})
	tab := func(items ...xdm.Item) *Table {
		t := NewTable([]string{"iter", "item"})
		t.Data[0] = xdm.IntColumn(make([]int64, len(items)))
		t.Data[1] = xdm.ItemColumn(items)
		return t
	}
	mixed := tab(xdm.NewNode(xdm.NodeID{Frag: 1, Pre: 1}), xdm.NewInt(4), xdm.NewNode(xdm.NodeID{Frag: 1, Pre: 2}))
	ex := NewExec(store, nil, Options{})
	if _, err := ex.EvalOp(n, []*Table{mixed}); err == nil || !strings.Contains(err.Error(), "path step over atomic value") {
		t.Errorf("got %v, want the path-step-over-atomic error", err)
	}
}

// TestElemPostingsScan covers what only the postings path can get wrong,
// on a document where an attribute and an element share a name: every
// region sub-range [lo, hi] — most start and end between two postings —
// must read the same from the indexed document, its unindexed copy, and a
// plain filter.
func TestElemPostingsScan(t *testing.T) {
	doc := xmltree.MustParseString(sharedNames)
	plain := wrapCopy(doc)
	if id, _ := doc.NameID("x"); !okPostings(doc, id) {
		t.Fatal("a parsed document must have postings")
	}
	if id, _ := plain.NameID("x"); okPostings(plain, id) {
		t.Fatal("a constructed fragment must not have postings")
	}
	scan := func(f *xmltree.Fragment, lo, hi int32, test xquery.NodeTest) []int32 {
		out := []int32{}
		m := newMatcher(xquery.AxisDescendant, test)
		if !m.bind(f) {
			return out
		}
		for _, n := range scanRegionRange(nil, f, 0, lo, lo, hi, &m) {
			out = append(out, n.Pre)
		}
		return out
	}
	last := int32(doc.Len() - 1)
	for _, test := range stepTests("x", "id", "y", "nosuchname") {
		for lo := int32(1); lo <= last; lo++ {
			for hi := lo; hi <= last; hi++ {
				want := []int32{}
				for c := lo; c <= hi; c++ {
					// lo is the region's context: on its own -or-self axis even as an attribute.
					if (c == lo || doc.Kind[c] != xmltree.KindAttr) && naiveMatch(doc, c, xquery.AxisDescendant, test) {
						want = append(want, c)
					}
				}
				indexed := scan(doc, lo, hi, test)
				scanned := scan(plain, lo, hi, test)
				if !slices.Equal(indexed, want) || !slices.Equal(scanned, want) {
					t.Fatalf("%s over [%d,%d]: indexed %v, scanned %v, want %v", test, lo, hi, indexed, scanned, want)
				}
			}
		}
	}
	// descendant-or-self from an attribute context named like the test.
	attr := doc.Attributes(1)[1] // r/@x
	for _, test := range stepTests("x") {
		got := AxisScan(doc, []int32{attr}, xquery.AxisDescendantOrSelf, test)
		if want := naiveAxis(doc, []int32{attr}, xquery.AxisDescendantOrSelf, test); !slices.Equal(got, want) {
			t.Errorf("descendant-or-self::%s from @x: got %v, want %v", test, got, want)
		}
	}
}

func okPostings(f *xmltree.Fragment, id uint32) bool {
	_, ok := f.ElemPostings(id)
	return ok
}

// TestStaircaseKeepsCoveredAttribute: an attribute context inside another
// context's subtree is pruned from the descendant axis but is still its
// own descendant-or-self (the pipeline used to drop it; the reference
// interpreter never did).
func TestStaircaseKeepsCoveredAttribute(t *testing.T) {
	doc := xmltree.MustParseString(sharedNames)
	x := doc.Children(1)[0]
	ctx := []int32{x, doc.Attributes(x)[0]}
	test := xquery.NodeTest{Kind: xquery.TestNode}
	got := AxisScan(doc, ctx, xquery.AxisDescendantOrSelf, test)
	if want := naiveAxis(doc, ctx, xquery.AxisDescendantOrSelf, test); !slices.Equal(got, want) {
		t.Errorf("descendant-or-self::node() from x and x/@id: got %v, want %v", got, want)
	}
}

// TestElemPostingsFirstUseRace: eight goroutines race the lazy build on a
// fresh document; every one of them must read complete postings. Run
// under -race in CI.
func TestElemPostingsFirstUseRace(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Factor: 0.002})
	test := xquery.NodeTest{Kind: xquery.TestName, Name: "item"}
	want := naiveAxis(doc, []int32{0}, xquery.AxisDescendant, test)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := AxisScan(doc, []int32{0}, xquery.AxisDescendant, test); !slices.Equal(got, want) {
				t.Errorf("raced first use: %d items, want %d", len(got), len(want))
			}
		}()
	}
	close(start)
	wg.Wait()
}

// FuzzAxisScan: a random small document, a random context set and any
// axis/test — the kernel equals the naive reference, and the indexed
// document equals its unindexed copy.
func FuzzAxisScan(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 9, 200}, uint8(1), uint8(0))
	f.Add(int64(2), []byte{1, 1, 2}, uint8(2), uint8(5))
	f.Add(int64(3), []byte{7}, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, picks []byte, axisSel, testSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c"}
		b := xmltree.NewBuilder()
		b.StartDoc("fuzz.xml")
		var grow func(depth int)
		grow = func(depth int) {
			b.StartElem(names[rng.Intn(3)])
			// Attribute names are drawn from the element names, distinct per element.
			for a, off := rng.Intn(3), rng.Intn(3); a > 0; a-- {
				b.Attr(names[(off+a)%3], "v")
			}
			for k := rng.Intn(4); k > 0 && depth < 5; k-- {
				if rng.Intn(3) == 0 {
					b.Text("t")
				} else {
					grow(depth + 1)
				}
			}
			b.EndElem()
		}
		grow(0)
		doc := b.Close()
		plain := wrapCopy(doc)

		var ctx []int32
		for _, p := range picks {
			ctx = append(ctx, int32(int(p)%doc.Len()))
		}
		slices.Sort(ctx)
		ctx = slices.Compact(ctx)
		axis := stepAxes[int(axisSel)%len(stepAxes)]
		test := stepTests("a", "b", "nosuchname")[int(testSel)%6]

		got := AxisScan(doc, ctx, axis, test)
		if want := naiveAxis(doc, ctx, axis, test); !slices.Equal(got, want) {
			t.Fatalf("%s::%s over %v: got %v, want %v", axis, test, ctx, got, want)
		}
		// Rank 0 is a document node in one and an element in the other.
		isRoot := func(v int32) bool { return v == 0 }
		ctx = slices.DeleteFunc(ctx, isRoot)
		indexed := slices.DeleteFunc(AxisScan(doc, ctx, axis, test), isRoot)
		scanned := slices.DeleteFunc(AxisScan(plain, ctx, axis, test), isRoot)
		if !slices.Equal(indexed, scanned) {
			t.Fatalf("%s::%s over %v: indexed %v, unindexed %v", axis, test, ctx, indexed, scanned)
		}
	})
}
