package opt

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// useKind distinguishes how a required column is consumed. The paper's
// analysis (Figure 8) tracks a single "strictly required" set; we refine
// it with the distinction §7 needs: a column required only as a sort
// criterion (useOrder) may be replaced by any order-isomorphic column —
// in particular, sorting by a constant or by arbitrary unique numbers
// conveys no information and the criterion can be dropped. A column whose
// values are consumed (useValue: join keys, selections, arithmetic,
// output items, positional ranks) is untouchable.
type useKind uint8

const (
	useValue useKind = 1 << iota
	useOrder
)

// colProp records what is known about a column's content. This is the
// property inference the paper's §7 wrap-up builds on:
//
//   - constant: every row holds the same value (e.g. the top-level loop's
//     iter column, or a pos column installed by × with a literal);
//   - arbitrary: the values are meaningless identifiers — their relative
//     order carries no information (outputs of #, and anything derived
//     from them by copying);
//   - unique: no value occurs twice (a key column): # outputs, ungrouped
//     ρ outputs, aggregate group columns; preserved across a join when
//     the opposite key is itself unique, and across a union only when the
//     compiler asserted disjointness.
type colProp struct {
	constant  bool
	arbitrary bool
	unique    bool
	constVal  *xdm.Item // the literal cell a constant column copies
}

// analysis is one round's view of a plan DAG: a topological order shared
// by inference and rewriting, and two flat tables holding one slot per
// schema column per node. A node's requirements and column properties
// only ever mention columns of its own schema, so a slot is addressed by
// (node, schema position); nothing is keyed by column name.
type analysis struct {
	nodes []*algebra.Node // topological, inputs first; the root is last
	pos   []int32         // Node.ID → index into nodes
	off   []int32         // index into nodes → the node's first slot
	use   []useKind       // inferRequired's table
	props []colProp       // inferProps' table
}

func newAnalysis(root *algebra.Node) *analysis {
	a := &analysis{nodes: algebra.Nodes(root)}
	maxID, slots := 0, 0
	for _, n := range a.nodes {
		if n.ID > maxID {
			maxID = n.ID
		}
		slots += len(n.Schema())
	}
	a.pos = make([]int32, maxID+1)
	a.off = make([]int32, len(a.nodes))
	slots = 0
	for i, n := range a.nodes {
		a.pos[n.ID] = int32(i)
		a.off[i] = int32(slots)
		slots += len(n.Schema())
	}
	a.use = make([]useKind, slots)
	return a
}

// colReq is one node's row of the requirement table: use[i] accumulates
// how consumers use schema column i (0 = not required).
type colReq struct {
	n   *algebra.Node
	use []useKind
}

func (a *analysis) req(n *algebra.Node) colReq {
	o := a.off[a.pos[n.ID]]
	return colReq{n, a.use[o : int(o)+len(n.Schema())]}
}

func (r colReq) get(col string) useKind {
	if i := r.n.ColIndex(col); i >= 0 {
		return r.use[i]
	}
	return 0
}

// add records a use of col; a column the node does not produce (the
// root's pos in a plan that has none) has no slot and nothing to record.
func (r colReq) add(col string, k useKind) {
	if k == 0 {
		return
	}
	if i := r.n.ColIndex(col); i >= 0 {
		r.use[i] |= k
	}
}

// addAll passes requirements on to an input whose schema lines up
// position by position with a prefix of from.
func (r colReq) addAll(from []useKind) {
	for i := range r.use {
		r.use[i] |= from[i]
	}
}

// res is the use of the schema's last column, where ρ, #, ⊕ and map put
// their result after the input's columns.
func (r colReq) res() useKind { return r.use[len(r.use)-1] }

func (r colReq) has(col string) bool { return r.get(col) != 0 }

// orderOnly reports whether the column is consumed exclusively as a sort
// criterion.
func (r colReq) orderOnly(col string) bool { return r.get(col) == useOrder }

// required returns the required column names in deterministic order.
func (r colReq) required() []string {
	var out []string
	for i, k := range r.use {
		if k != 0 {
			out = append(out, r.n.Schema()[i])
		}
	}
	sort.Strings(out)
	return out
}

// inferRequired walks the DAG top-down (consumers before producers) and
// computes the strictly required columns of every node — the Figure 8
// inference, seeded at the root with {pos (order), item (value)}: exactly
// the columns needed "to properly serialize the item sequence which forms
// the result of a query".
func inferRequired(root *algebra.Node) *analysis {
	a := newAnalysis(root)
	rootReq := a.req(root)
	rootReq.add("pos", useOrder)
	rootReq.add("item", useValue)

	for i := len(a.nodes) - 1; i >= 0; i-- {
		n := a.nodes[i]
		R := a.req(n)
		in := func(side int) colReq { return a.req(n.Ins[side]) }
		switch n.Kind {
		case algebra.OpLit, algebra.OpDoc:
			// no inputs

		case algebra.OpProject:
			for j, p := range n.Proj {
				in(0).add(p.Old, R.use[j])
			}

		case algebra.OpSelect:
			in(0).addAll(R.use)
			in(0).add(n.Col, useValue)

		case algebra.OpJoin, algebra.OpCross:
			in(0).addAll(R.use)
			in(1).addAll(R.use[len(n.Ins[0].Schema()):])
			if n.Kind == algebra.OpJoin {
				in(0).add(n.LCol, useValue)
				in(1).add(n.RCol, useValue)
			}

		case algebra.OpRowNum:
			if R.res() != 0 {
				for _, s := range n.Sort {
					in(0).add(s.Col, useOrder)
				}
				if n.Part != "" {
					in(0).add(n.Part, useValue)
				}
			}
			in(0).addAll(R.use)

		case algebra.OpRowID:
			in(0).addAll(R.use)

		case algebra.OpBinOp:
			if R.res() != 0 {
				in(0).add(n.LCol, useValue)
				in(0).add(n.RCol, useValue)
				if n.TCol != "" {
					in(0).add(n.TCol, useValue)
				}
			}
			in(0).addAll(R.use)

		case algebra.OpMap1:
			if R.res() != 0 {
				in(0).add(n.LCol, useValue)
			}
			in(0).addAll(R.use)

		case algebra.OpUnion:
			// The schema is the left input's; the right input holds the
			// same columns in its own order.
			in(0).addAll(R.use)
			for j, c := range n.Schema() {
				in(1).add(c, R.use[j])
			}

		case algebra.OpSemi, algebra.OpDiff:
			in(0).addAll(R.use)
			for _, c := range n.Cols {
				in(0).add(c, useValue)
				in(1).add(c, useValue)
			}

		case algebra.OpDistinct:
			for _, c := range n.Cols {
				in(0).add(c, useValue)
			}

		case algebra.OpAggr:
			if n.Part != "" {
				in(0).add(n.Part, useValue)
			}
			if n.Col != "" {
				in(0).add(n.Col, useValue)
			}
			if n.AFn == algebra.AggrStrJoin {
				in(0).add("pos", useOrder)
			}

		case algebra.OpStep:
			in(0).add("iter", useValue)
			in(0).add("item", useValue)

		case algebra.OpElem:
			in(0).add("iter", useValue)
			for k := 1; k < len(n.Ins); k++ {
				in(k).add("iter", useValue)
				in(k).add("item", useValue)
				// Sequence order establishes document order (interaction
				// 2): constructors genuinely consume each slot's order.
				in(k).add("pos", useOrder)
			}

		case algebra.OpRange:
			in(0).add("iter", useValue)
			in(0).add(n.LCol, useValue)
			in(0).add(n.RCol, useValue)

		case algebra.OpCheckCard:
			in(0).addAll(R.use)
			in(0).add(n.Col, useValue)
			if len(n.Ins) == 2 {
				in(1).add(n.Col, useValue)
			}
		}
	}
	return a
}

// --- Column properties (§7): constants and arbitrary unique columns ---

// propsOf returns the node's row of the property table, one colProp per
// schema column.
func (a *analysis) propsOf(n *algebra.Node) []colProp {
	o := a.off[a.pos[n.ID]]
	return a.props[o : int(o)+len(n.Schema())]
}

// prop returns what is known about column col of node n (nothing, for a
// column n does not produce).
func (a *analysis) prop(n *algebra.Node, col string) colProp {
	if i := n.ColIndex(col); i >= 0 {
		return a.propsOf(n)[i]
	}
	return colProp{}
}

// inferProps fills the column property table bottom-up.
func (a *analysis) inferProps() {
	a.props = make([]colProp, len(a.use))
	for _, n := range a.nodes {
		p := a.propsOf(n)
		switch n.Kind {
		case algebra.OpLit:
			if len(n.Rows) == 1 {
				for i := range p {
					p[i] = colProp{constant: true, constVal: &n.Rows[0][i], unique: true}
				}
			}

		case algebra.OpProject:
			for i, pr := range n.Proj {
				p[i] = a.prop(n.Ins[0], pr.Old)
			}

		case algebra.OpSelect, algebra.OpSemi, algebra.OpDiff, algebra.OpCheckCard:
			// Row subsets preserve all three properties.
			copy(p, a.propsOf(n.Ins[0]))

		case algebra.OpDistinct:
			for i, c := range n.Cols {
				p[i] = a.prop(n.Ins[0], c)
			}
			if len(n.Cols) == 1 {
				p[0].unique = true
			}

		case algebra.OpRowID:
			copy(p, a.propsOf(n.Ins[0]))
			p[len(p)-1] = colProp{arbitrary: true, unique: true}

		case algebra.OpRowNum:
			copy(p, a.propsOf(n.Ins[0]))
			if n.Part == "" {
				p[len(p)-1] = colProp{unique: true} // dense global numbering
			}

		case algebra.OpBinOp, algebra.OpMap1:
			copy(p, a.propsOf(n.Ins[0]))

		case algebra.OpJoin, algebra.OpCross:
			// A side's keys stay keys when every one of its rows meets at
			// most one partner: the opposite equi-join key is unique, or
			// the opposite cross operand is a single-row literal. A θ-join
			// bounds nobody's partners.
			l, r := n.Ins[0], n.Ins[1]
			nl := copy(p, a.propsOf(l))
			copy(p[nl:], a.propsOf(r))
			keepL, keepR := singleRowLit(r), singleRowLit(l)
			if n.Kind == algebra.OpJoin {
				equi := n.Mode == algebra.JoinEqui
				keepL, keepR = equi && a.prop(r, n.RCol).unique, equi && a.prop(l, n.LCol).unique
			}
			for i := range p {
				p[i].unique = p[i].unique && ((i < nl && keepL) || (i >= nl && keepR))
			}

		case algebra.OpUnion:
			for i, c := range n.Schema() {
				lp, rp := a.propsOf(n.Ins[0])[i], a.prop(n.Ins[1], c)
				merged := colProp{}
				if lp.constant && rp.constant &&
					xdm.DistinctKey(*lp.constVal) == xdm.DistinctKey(*rp.constVal) {
					merged.constant, merged.constVal = true, lp.constVal
				}
				merged.arbitrary = lp.arbitrary && rp.arbitrary
				if n.Disj == c {
					merged.unique = lp.unique && rp.unique
				}
				p[i] = merged
			}

		case algebra.OpAggr:
			if n.Part != "" {
				p[0] = a.prop(n.Ins[0], n.Part)
				p[0].unique = true // one row per group
			}

		case algebra.OpElem:
			// One row per loop row, whose iter it copies: the loop's
			// properties, uniqueness included, carry over.
			p[0] = a.prop(n.Ins[0], "iter")

		case algebra.OpStep, algebra.OpRange:
			// Iteration ids (the schema's first column) are copied
			// through; constants and arbitrariness survive, uniqueness
			// does not (steps and ranges fan out).
			p[0] = a.prop(n.Ins[0], "iter")
			p[0].unique = false
		}
	}
}

func singleRowLit(n *algebra.Node) bool {
	return n.Kind == algebra.OpLit && len(n.Rows) == 1
}
