package opt

import (
	"repro/internal/algebra"
	"repro/internal/xquery"
)

// rewrite runs one round over the DAG: one inference, then one bottom-up
// walk in which every node is rebuilt over its rewritten inputs and the
// enabled rewrites fire as local peepholes on the result.
//
// Column dependency analysis (§4.1) infers strictly required columns
// top-down first and removes operators that only produce unneeded
// columns —
//
//   - ρ/# whose result column nobody requires (the dead order
//     bookkeeping left behind by the compositional compiler),
//   - binops/mappings with unused results,
//   - cross products that install unused literal columns (the × pos|1
//     instances of Figure 6(b)),
//   - projection pairs for unneeded columns.
//
// With RownumRelax (§7), residual ρ operators whose result is consumed
// only as a sort criterion and whose own sort criteria are constants or
// arbitrary unique ids degenerate into free # stamps. Step merging and
// disjoint-distinct removal look only at the rebuilt node and its
// (already final) inputs.
func rewrite(root *algebra.Node, b *algebra.Builder, opts Options) *algebra.Node {
	var a *analysis
	if opts.ColumnAnalysis {
		a = inferRequired(root)
		if opts.RownumRelax {
			a.inferProps()
		}
	} else {
		a = newAnalysis(root)
	}
	done := make([]*algebra.Node, len(a.nodes))
	for i, n := range a.nodes {
		newIns, copied := n.Ins, false
		for j, in := range n.Ins {
			if d := done[a.pos[in.ID]]; d != in {
				if !copied {
					newIns, copied = append([]*algebra.Node(nil), n.Ins...), true
				}
				newIns[j] = d
			}
		}
		var out *algebra.Node
		if opts.ColumnAnalysis {
			out = prune(n, newIns, b, a, opts.RownumRelax)
		} else {
			out = b.Rebuild(n, newIns)
		}
		if opts.StepMerge {
			out = mergeStep(out, b)
		}
		if opts.DisjointDistinct {
			out = dropDisjointDistinct(out, b)
		}
		done[i] = out
	}
	return done[len(done)-1]
}

// prune rebuilds n over newIns, leaving out what n's consumers do not
// require.
func prune(n *algebra.Node, newIns []*algebra.Node, b *algebra.Builder, a *analysis, relax bool) *algebra.Node {
	R := a.req(n)
	switch n.Kind {
	case algebra.OpRowNum, algebra.OpRowID, algebra.OpBinOp, algebra.OpMap1:
		switch res := R.res(); {
		case res == 0:
			return newIns[0]
		case n.Kind == algebra.OpRowNum && relax && res == useOrder:
			return relaxRowNum(n, newIns[0], b, a)
		}
	case algebra.OpCross:
		// A single-row literal operand none of whose columns are required.
		nl := len(n.Ins[0].Schema())
		switch {
		case singleRowLit(n.Ins[0]) && noneRequired(R.use[:nl]):
			return newIns[1]
		case singleRowLit(n.Ins[1]) && noneRequired(R.use[nl:]):
			return newIns[0]
		}
	case algebra.OpProject:
		var pairs []algebra.ColPair
		for j, p := range n.Proj {
			if R.use[j] != 0 {
				pairs = append(pairs, p)
			}
		}
		if len(pairs) == 0 {
			pairs = n.Proj // keep degenerate projections intact
		}
		return b.Project(newIns[0], pairs...)
	case algebra.OpUnion:
		if cols := R.required(); len(cols) != 0 {
			// Rebuild (not a fresh Union) to preserve the disjointness
			// assertion for property inference — unless its column was
			// projected away.
			return b.RebuildWith(n, []*algebra.Node{
				b.Keep(newIns[0], cols...), b.Keep(newIns[1], cols...),
			}, func(c *algebra.Node) {
				if c.Disj != "" && !R.has(c.Disj) {
					c.Disj = ""
				}
			})
		}
	}
	return b.Rebuild(n, newIns)
}

func noneRequired(use []useKind) bool {
	for _, k := range use {
		if k != 0 {
			return false
		}
	}
	return true
}

// relaxRowNum implements the §7 wrap-up for a ρ whose result is consumed
// as an order criterion only:
//
//   - constant sort criteria are useless order criteria — dropped;
//   - an arbitrary *unique* criterion imposes a meaningless total order:
//     it never leaves ties for later criteria, so it and everything after
//     it may be replaced by "any order" — the list is truncated there;
//   - a constant grouping column degenerates to no grouping.
//
// A ρ left with no criteria "comes for free" — it becomes #. (With a
// non-constant grouping column the # stamp is still an admissible
// order-only replacement: group-internal order was arbitrary once no
// criteria remain, and pos ranks are only ever compared within groups.)
func relaxRowNum(n *algebra.Node, in *algebra.Node, b *algebra.Builder, a *analysis) *algebra.Node {
	var keep []algebra.SortSpec
	for _, s := range n.Sort {
		cp := a.prop(n.Ins[0], s.Col)
		if cp.constant {
			continue
		}
		if cp.arbitrary && cp.unique {
			break // this and all later criteria are immaterial
		}
		keep = append(keep, s)
	}
	part := n.Part
	if part != "" && a.prop(n.Ins[0], part).constant {
		part = ""
	}
	if len(keep) == 0 {
		return algebra.WithOrigin(b.RowID(in, n.Res), "relaxed rownum (#)")
	}
	if len(keep) == len(n.Sort) && part == n.Part {
		return b.Rebuild(n, []*algebra.Node{in})
	}
	return b.RebuildWith(n, []*algebra.Node{in}, func(c *algebra.Node) {
		c.Sort = keep
		c.Part = part
	})
}

// mergeStep fuses ⤋descendant-or-self::node() feeding ⤋child::nt into a
// single ⤋descendant::nt — the XPath // equivalence. In ordered plans a ρ
// sits between the two steps; once column analysis has removed it (the
// unordered case), the steps become adjacent and merge. This rewrite is
// behind the exceptional Q6/Q7 speedups of Figure 12: the huge
// descendant-or-self::node() intermediate is never materialized.
func mergeStep(n *algebra.Node, b *algebra.Builder) *algebra.Node {
	if n.Kind == algebra.OpStep && n.Axis == xquery.AxisChild {
		if inner := resolveStep(n.Ins[0]); inner != nil &&
			inner.Axis == xquery.AxisDescendantOrSelf &&
			inner.Test.Kind == xquery.TestNode {
			merged := b.Step(inner.Ins[0], xquery.AxisDescendant, n.Test)
			return algebra.WithOrigin(merged, "path step (merged //)")
		}
	}
	return n
}

// resolveStep looks through operators that leave the (iter, item) pairs of
// a step result untouched — # stamps and projections that pass iter and
// item through unrenamed — and returns the underlying step, or nil.
func resolveStep(n *algebra.Node) *algebra.Node {
	for {
		switch n.Kind {
		case algebra.OpStep:
			return n
		case algebra.OpRowID:
			n = n.Ins[0]
		case algebra.OpProject:
			ok := true
			for _, p := range n.Proj {
				if (p.New == "iter" || p.New == "item") && p.New != p.Old {
					ok = false
					break
				}
			}
			if !ok || !n.HasCol("iter") || !n.HasCol("item") {
				return nil
			}
			n = n.Ins[0]
		default:
			return nil
		}
	}
}

// dropDisjointDistinct removes duplicate elimination over unions whose
// branches are provably disjoint: steps with name tests for different
// names can never produce the same node (a node has one name), and step
// output is itself duplicate-free per iteration. This completes the
// paper's Figure 10: unordered { $t//(c|d) } ends as a pure concatenation.
func dropDisjointDistinct(n *algebra.Node, b *algebra.Builder) *algebra.Node {
	if n.Kind == algebra.OpDistinct && len(n.Cols) == 2 &&
		n.Cols[0] == "iter" && n.Cols[1] == "item" {
		if names, ok := disjointNames(n.Ins[0]); ok && allDistinct(names) {
			return b.Keep(n.Ins[0], "iter", "item")
		}
	}
	return n
}

// disjointNames collects the name tests of the union branches below n,
// looking through pass-through projections; it fails if any branch is not
// a name-test step.
func disjointNames(n *algebra.Node) ([]string, bool) {
	switch n.Kind {
	case algebra.OpUnion:
		l, ok := disjointNames(n.Ins[0])
		if !ok {
			return nil, false
		}
		r, ok := disjointNames(n.Ins[1])
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	default:
		st := resolveStep(n)
		if st == nil || st.Test.Kind != xquery.TestName {
			return nil, false
		}
		return []string{st.Test.Name}, true
	}
}

func allDistinct(names []string) bool {
	for i, n := range names {
		for _, m := range names[:i] {
			if n == m {
				return false
			}
		}
	}
	return true
}
