package engine

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// stepRuns is a step operator's context table clustered for the staircase
// join: rows ordered by (first-occurrence rank of their iteration,
// fragment, preorder rank) with duplicates dropped, walked as maximal runs
// of one iteration and one fragment. Scanning the runs in order and
// concatenating the results reproduces the operator output — per
// iteration duplicate-free and in document order — exactly. Nothing is
// allocated per iteration or per run.
type stepRuns struct {
	iters  []int64
	nodes  []xdm.NodeID
	pooled bool // iters and nodes are reordered copies to hand back, not the input columns
	pos    int

	// The current run, set by next: the iteration and its sorted,
	// duplicate-free context nodes in one fragment (valid until release).
	iter int64
	ctx  []xdm.NodeID
}

// groupStep clusters the (iter, item) rows of a step input. Input that a
// preceding step or a loop-lifted numbering left clustered (iterations
// non-decreasing, nodes strictly ascending within each) is walked in
// place; anything else is reordered through one row permutation.
func groupStep(in *Table) (stepRuns, error) {
	itemCol := in.Col("item")
	iters := iterInts(in.Col("iter"))
	// A flat node column needs no per-row kind checks; the boxed fallback
	// reports the first non-node cell.
	nodes, flat := itemCol.Nodes()
	if its, ok := itemCol.RawItems(); ok && !flat {
		nodes = xdm.GetNodes(len(its))
		defer xdm.PutNodes(nodes) // scratch: boxed input always takes the reordering path, which copies
		for r := range its {
			if !its[r].IsNode() {
				return stepRuns{}, fmt.Errorf("path step over atomic value %s", its[r].Kind)
			}
			nodes[r] = its[r].N
		}
	} else if !flat && in.NumRows() > 0 {
		return stepRuns{}, fmt.Errorf("path step over atomic value %s", itemCol.Get(0).Kind)
	}
	clustered := flat
	for r := 1; r < len(nodes) && clustered; r++ {
		clustered = iters[r] > iters[r-1] || iters[r] == iters[r-1] && nodes[r-1].Before(nodes[r])
	}
	if clustered {
		return stepRuns{iters: iters, nodes: nodes}, nil
	}
	// Order by the first occurrence of the iteration, then by node.
	ix, _ := groupInts(iters, func() error { return nil })
	rank, keys := xdm.GetInts(len(nodes)), xdm.GetInts(len(nodes))
	for r, id := range nodes {
		rank[r], keys[r] = int64(ix.ids[r]), nodeKey(id)
	}
	ix.release()
	perm, _, _ := sortByKeys(len(nodes), [][]int64{rank, keys}, nil) // no poll, so no error
	xdm.PutInts(rank)
	xdm.PutInts(keys)
	g := stepRuns{iters: xdm.GetInts(len(nodes))[:0], nodes: xdm.GetNodes(len(nodes))[:0], pooled: true}
	for _, r := range perm {
		if n := len(g.nodes); n > 0 && g.iters[n-1] == iters[r] && g.nodes[n-1] == nodes[r] {
			continue // duplicate context node
		}
		g.iters, g.nodes = append(g.iters, iters[r]), append(g.nodes, nodes[r])
	}
	xdm.PutInt32s(perm)
	return g, nil
}

// next advances to the next run; false after the last one.
func (g *stepRuns) next() bool {
	start := g.pos
	if start >= len(g.nodes) {
		return false
	}
	end := start + 1
	for end < len(g.nodes) && g.iters[end] == g.iters[start] && g.nodes[end].Frag == g.nodes[start].Frag {
		end++
	}
	g.pos, g.iter, g.ctx = end, g.iters[start], g.nodes[start:end]
	return true
}

// release hands pooled buffers back; ctx slices are dead afterwards.
func (g *stepRuns) release() {
	if g.pooled {
		xdm.PutInts(g.iters)
		xdm.PutNodes(g.nodes)
	}
}

// evalStep implements the XPath step operator ⤋ax::nt with a staircase
// join over the pre/size/level encoding (Grust/van Keulen/Teubner, VLDB
// 2003): within each iteration group the context set is sorted by preorder
// rank and pruned (contexts covered by an earlier context's subtree are
// skipped), then each surviving context's region is scanned once. The
// output is duplicate-free per iteration and in document order — but the
// plan never relies on that: sequence order is (re-)established by ρ, or
// deliberately left arbitrary by #. Both output columns are flat (iter
// ids and node refs) and the scans append straight into them.
func (ex *Exec) evalStep(n *algebra.Node, in *Table) (*Table, error) {
	runs, err := groupStep(in)
	if err != nil {
		return nil, ex.errf(n, "%v", err)
	}
	defer runs.release()
	outIter := xdm.GetInts(in.NumRows())[:0]
	outItem := xdm.GetNodes(in.NumRows())[:0]
	fr := fragRun{store: ex.store}
	m := newMatcher(n.Axis, n.Test)
	for i := 0; runs.next(); i++ {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				xdm.PutInts(outIter)
				xdm.PutNodes(outItem)
				return nil, err
			}
		}
		if f := fr.frag(runs.ctx[0].Frag); m.bind(f) {
			outItem = appendAxis(outItem, f, runs.ctx, &m)
			outIter = appendIter(outIter, runs.iter, len(outItem))
		}
	}
	t := NewTable([]string{"iter", "item"})
	t.Data[0] = xdm.IntColumn(outIter)
	t.Data[1] = xdm.NodeColumn(outItem)
	return t, nil
}

// appendIter pads out with iter up to length n, growing through the pool.
func appendIter(out []int64, iter int64, n int) []int64 {
	old := len(out)
	out = xdm.GrowInts(out, n)[:n]
	for i := old; i < n; i++ {
		out[i] = iter
	}
	return out
}

// pushNode is append for step output: a full buffer is swapped for the
// next pool class instead of being left to the garbage collector.
func pushNode(out []xdm.NodeID, frag uint32, pre int32) []xdm.NodeID {
	if len(out) == cap(out) {
		out = xdm.GrowNodes(out, len(out)+1)
	}
	return append(out, xdm.NodeID{Frag: frag, Pre: pre})
}

// dedupSorted sorts node references of one fragment by preorder rank and
// removes duplicates, in place.
func dedupSorted(ns []xdm.NodeID) []xdm.NodeID {
	byPre := func(a, b xdm.NodeID) int { return cmp.Compare(a.Pre, b.Pre) }
	if !slices.IsSortedFunc(ns, byPre) {
		slices.SortFunc(ns, byPre)
	}
	return slices.Compact(ns)
}

// staircase prunes a sorted duplicate-free context set of fragment f for
// the descendant or descendant-or-self axis and calls scan with each
// region the staircase join walks, in ascending order: the preorder range
// [lo, hi] dominated by context ctx.
func staircase(f *xmltree.Fragment, ctx []xdm.NodeID, axis xquery.Axis, scan func(ctx, lo, hi int32)) {
	orSelf := axis == xquery.AxisDescendantOrSelf
	var root, lo, hi int32 = 0, 0, -1 // the region not yet handed to scan
	for _, cn := range ctx {
		v := cn.Pre
		if v > hi {
			if lo <= hi {
				scan(root, lo, hi)
			}
			root, lo, hi = v, v+1, v+f.Size[v]
			if orSelf {
				lo = v
			}
		} else if orSelf && f.Kind[v] == xmltree.KindAttr {
			// Covered by an earlier context's subtree, but not on its
			// descendant axis: the attribute is only its own -or-self.
			if lo < v {
				scan(root, lo, v-1)
			}
			scan(v, v, v)
			lo = v + 1
		} // else covered by an earlier context's subtree
	}
	if lo <= hi {
		scan(root, lo, hi)
	}
}

// scanRegionRange scans the preorder subrange [lo, hi] of a descendant
// region rooted at ctx, appending the nodes m (bound to f) matches, as
// nodes of fragment frag, to out. A name test over a document with
// element postings costs a binary search plus the matches instead of a
// visit to every node of the range.
func scanRegionRange(out []xdm.NodeID, f *xmltree.Fragment, frag uint32, ctx, lo, hi int32, m *matcher) []xdm.NodeID {
	if m.byName {
		// Postings hold elements only, which is all a name test matches
		// here — even an attribute context on its own -or-self axis fails it.
		if post, ok := f.ElemPostings(m.id); ok {
			i, _ := slices.BinarySearch(post, lo)
			for ; i < len(post) && post[i] <= hi; i++ {
				out = pushNode(out, frag, post[i])
			}
			return out
		}
	}
	for c := lo; c <= hi; c++ {
		// Attributes are not on the descendant axis, but a context node is
		// on its own descendant-or-self axis even if it is an attribute.
		if (c == ctx || f.Kind[c] != xmltree.KindAttr) && m.match(f, c) {
			out = pushNode(out, frag, c)
		}
	}
	return out
}

// appendAxis evaluates m's axis over a sorted, duplicate-free context set
// within fragment f, appending the nodes m (bound to f) matches to out in
// document order.
func appendAxis(out []xdm.NodeID, f *xmltree.Fragment, ctx []xdm.NodeID, m *matcher) []xdm.NodeID {
	if len(ctx) == 0 {
		return out
	}
	base, frag, axis := len(out), ctx[0].Frag, m.axis
	switch axis {
	case xquery.AxisDescendant, xquery.AxisDescendantOrSelf:
		staircase(f, ctx, axis, func(ctx, lo, hi int32) {
			out = scanRegionRange(out, f, frag, ctx, lo, hi, m)
		})
	case xquery.AxisChild:
		sorted, last := true, int32(-1)
		for _, cn := range ctx {
			v := cn.Pre
			end := v + f.Size[v]
			lvl := f.Level[v] + 1
			for c := v + 1; c <= end; c += f.Size[c] + 1 {
				if f.Kind[c] != xmltree.KindAttr && f.Level[c] == lvl && m.match(f, c) {
					sorted = sorted && c > last
					last = c
					out = pushNode(out, frag, c)
				}
			}
		}
		if !sorted {
			dedupSorted(out[base:]) // children of distinct contexts are disjoint; nested contexts only leave them out of document order
		}
	case xquery.AxisAttribute:
		for _, cn := range ctx {
			v := cn.Pre
			end := v + f.Size[v]
			for c := v + 1; c <= end && f.Kind[c] == xmltree.KindAttr && f.Level[c] == f.Level[v]+1; c++ {
				if m.match(f, c) {
					out = pushNode(out, frag, c)
				}
			}
		}
	case xquery.AxisSelf:
		for _, cn := range ctx {
			if m.match(f, cn.Pre) {
				out = pushNode(out, frag, cn.Pre)
			}
		}
	case xquery.AxisParent:
		for _, cn := range ctx {
			if p := f.Parent[cn.Pre]; p >= 0 && m.match(f, p) {
				out = pushNode(out, frag, p)
			}
		}
		out = out[:base+len(dedupSorted(out[base:]))]
	}
	return out
}

// AxisScan is appendAxis over bare preorder ranks.
func AxisScan(f *xmltree.Fragment, ctx []int32, axis xquery.Axis, test xquery.NodeTest) []int32 {
	m := newMatcher(axis, test)
	if !m.bind(f) {
		return []int32{}
	}
	cs := make([]xdm.NodeID, len(ctx))
	for i, v := range ctx {
		cs[i].Pre = v
	}
	ns := appendAxis(nil, f, cs, &m)
	out := make([]int32, len(ns))
	for i := range ns {
		out[i] = ns[i].Pre
	}
	xdm.PutNodes(ns)
	return out
}

// matcher is a step's axis and node test bound to one name dictionary.
// A name test holds its name's id there, so a node matches on integer
// compares alone. The principal node kind is attribute on the attribute
// axis and element elsewhere.
type matcher struct {
	axis    xquery.Axis
	name    string
	kind    xmltree.NodeKind // the kind a match needs, unless anyKind
	anyKind bool
	byName  bool     // a name test: a match also needs name id id
	id      uint32   // the name's id in names
	found   bool     // names holds the name
	names   []string // the dictionary id was resolved in
}

// newMatcher compiles a step's node test; bind it to a fragment before
// use.
func newMatcher(axis xquery.Axis, test xquery.NodeTest) matcher {
	m := matcher{axis: axis, name: test.Name, kind: xmltree.KindElem}
	if axis == xquery.AxisAttribute {
		m.kind = xmltree.KindAttr
	}
	switch test.Kind {
	case xquery.TestNode:
		m.anyKind = true
	case xquery.TestText:
		m.kind = xmltree.KindText
	case xquery.TestName:
		m.byName = true
	}
	return m
}

// bind resolves a name test in f's dictionary — only when that is not
// the dictionary it was last resolved in, the way fragRun keeps the last
// fragment — and reports whether any node of f can match: a name the
// dictionary lacks matches nothing, so the scan is skipped.
func (m *matcher) bind(f *xmltree.Fragment) bool {
	if !m.byName {
		return true
	}
	if !xmltree.SameDict(m.names, f.Names) {
		m.names = f.Names
		m.id, m.found = f.NameID(m.name)
	}
	return m.found
}

func (m *matcher) match(f *xmltree.Fragment, v int32) bool {
	return (m.anyKind || f.Kind[v] == m.kind) && (!m.byName || f.Name[v] == m.id)
}
