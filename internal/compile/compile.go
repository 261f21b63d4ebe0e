// Package compile implements the loop-lifting compilation scheme ·⇒· from
// (normalized) XQuery to the relational algebra of package algebra,
// following the eXrQuy paper (§3, §4) and its companion papers on
// Pathfinder's compilation scheme.
//
// Every expression compiles, relative to a loop relation (one row per
// pending iteration), to a table with columns iter | pos | item: "in
// iteration iter, the expression assumes item value item at the sequence
// position given by pos's rank" — the paper's invariant reading of these
// tables.
//
// Order interactions are realized by the row-numbering primitive ρ (%):
//
//   - Rule LOC  (doc→seq):  %pos:<item>/iter after each XPath step;
//   - Rule BIND (seq→iter): %bind:<iter,pos> when generating for-bindings;
//   - the back-mapping     %pos1:<bind,pos>/iter1 when re-assembling a
//     for body's results (iter→seq).
//
// With order indifference enabled, the twin rules LOC#/BIND# (Figure 7)
// substitute the (almost) free # operator wherever the current ordering
// mode is unordered, and Rule FN:UNORDERED places #pos·π(iter,item) on top
// of fn:unordered() arguments. Positional variables (at $p) always force a
// real % — exactly the case §2.2 proves cannot be relaxed.
package compile

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/qerr"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// Options selects the compiler's order-awareness, mirroring §5's two
// configurations.
type Options struct {
	// Indifference is the master switch for the order-indifference rules
	// (LOC#, BIND#, FN:UNORDERED). Off, fn:unordered() compiles as the
	// identity — the behaviour the paper observed in most open-source
	// engines (§6) — and every order interaction is realized eagerly.
	Indifference bool
	// Vars binds the module's external prolog variables; values are
	// embedded into the plan as literal tables.
	Vars map[string][]xdm.Item
}

// Plan is a compiled query: a DAG whose root carries columns pos and item
// (the serializable result), plus the builder for further rewriting.
type Plan struct {
	Root    *algebra.Node
	Builder *algebra.Builder
	// Mode records the ordering mode of the module prolog.
	Mode xquery.OrderingMode
}

// Compile translates a normalized module into an algebra plan. The module
// must be function-free (run norm.Normalize first).
func Compile(m *xquery.Module, opts Options) (plan *Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				plan, err = nil, qerr.New(qerr.ErrCompile, "compile", ce.err)
				return
			}
			panic(r)
		}
	}()
	c := &compiler{b: algebra.NewBuilder(), opts: opts, mode: m.Ordering}
	// The top level runs in a single iteration: loop = {<1>}.
	loop := c.b.LitCol("iter", xdm.NewInt(1))
	root := rootFrame(loop)
	for _, vd := range m.Variables {
		if !vd.External {
			continue // desugared by normalization
		}
		items, ok := opts.Vars[vd.Name]
		if !ok {
			return nil, fmt.Errorf("compile: external variable $%s not bound", vd.Name)
		}
		rows := make([][]xdm.Item, len(items))
		for i, it := range items {
			rows[i] = []xdm.Item{xdm.NewInt(int64(i + 1)), it}
		}
		root.bind(vd.Name, c.b.Cross(loop, c.b.Lit([]string{"pos", "item"}, rows...)))
	}
	q := c.compile(m.Body, root)
	planRoot := c.b.Keep(q, "pos", "item")
	return &Plan{Root: planRoot, Builder: c.b, Mode: m.Ordering}, nil
}

// compileError carries user-facing compilation failures through the
// recursive descent via panic (the builder also panics on internal schema
// violations, which are bugs and deliberately not converted).
type compileError struct{ err error }

func (c *compiler) errf(format string, args ...any) {
	panic(compileError{fmt.Errorf("compile: "+format, args...)})
}

type compiler struct {
	b         *algebra.Builder
	opts      Options
	mode      xquery.OrderingMode
	fvCache   map[xquery.Expr]map[string]bool
	consCache map[xquery.Expr]bool
}

// unordered reports whether the # rules apply at this point: order
// indifference enabled and the current ordering mode is unordered.
func (c *compiler) unordered() bool {
	return c.opts.Indifference && c.mode == xquery.Unordered
}

// compile translates an expression relative to a frame, hoisting
// loop-invariant sub-expressions to the shallowest frame that binds their
// free variables and mapping the result back (§3's compositionality, plus
// the evaluate-once property of Pathfinder's code generator).
func (c *compiler) compile(e xquery.Expr, sc *frame) *algebra.Node {
	if cheapPerLoop(e) {
		// Constants and document roots cross the loop directly; routing
		// them through an ancestor frame and back would replace one free
		// cross product with a chain of joins.
		return c.compileAt(e, sc)
	}
	if si, ok := c.srcHoist(e, sc); ok {
		// Evaluate once per source row of the deepest variable's binding
		// sequence, then map into the current iterations.
		q := c.compileAt(e, si.srcFrame)
		return c.liftFromSrc(q, si, sc)
	}
	if target := c.hoistFrame(e, sc); target != sc {
		q := c.compileAt(e, target)
		return c.liftTo(q, target, sc)
	}
	return c.compileAt(e, sc)
}

// cheapPerLoop reports whether per-iteration evaluation of e is a single
// cross product (so hoisting could only hurt).
func cheapPerLoop(e xquery.Expr) bool {
	switch e := e.(type) {
	case *xquery.IntLit, *xquery.DecLit, *xquery.StrLit, *xquery.EmptySeq:
		return true
	case *xquery.FuncCall:
		switch e.Name {
		case "doc", "true", "false":
			return true
		}
	}
	return false
}

func (c *compiler) compileAt(e xquery.Expr, sc *frame) *algebra.Node {
	switch e := e.(type) {
	case *xquery.IntLit:
		return c.litTable(sc.loop, xdm.NewInt(e.Val))
	case *xquery.DecLit:
		return c.litTable(sc.loop, xdm.NewDouble(e.Val))
	case *xquery.StrLit:
		return c.litTable(sc.loop, xdm.NewString(e.Val))
	case *xquery.EmptySeq:
		return c.b.EmptyLit("iter", "pos", "item")
	case *xquery.VarRef:
		fr, v := sc.lookup(e.Name)
		if fr == nil {
			c.errf("unbound variable $%s", e.Name)
		}
		return c.liftTo(v, fr, sc)
	case *xquery.ContextItem:
		fr, v := sc.lookup(".")
		if fr == nil {
			c.errf("context item undefined")
		}
		return c.liftTo(v, fr, sc)
	case *xquery.Sequence:
		parts := make([]*algebra.Node, len(e.Items))
		for i, it := range e.Items {
			parts[i] = c.compile(it, sc)
		}
		return c.seqConcat(parts)
	case *xquery.Path:
		return c.compilePath(e, sc)
	case *xquery.Filter:
		q := c.compile(e.Base, sc)
		for _, p := range e.Preds {
			q = c.compilePredicate(q, p, sc)
		}
		return q
	case *xquery.FLWOR:
		return c.compileFLWOR(e, sc)
	case *xquery.Quantified:
		return c.compileQuantified(e, sc)
	case *xquery.IfExpr:
		return c.compileIf(e, sc)
	case *xquery.Arith:
		return c.compileArith(e.Op, e.L, e.R, sc)
	case *xquery.Neg:
		return c.mapAtom(e.Expr, algebra.UnNeg, "arithmetic operand", sc)
	case *xquery.GeneralCmp:
		return c.compileGeneralCmp(e, sc)
	case *xquery.ValueCmp:
		return c.compileValueCmp(e, sc)
	case *xquery.NodeCmp:
		return c.compileNodeCmp(e, sc)
	case *xquery.Logic:
		return c.compileLogic(e, sc)
	case *xquery.SetOp:
		return c.compileSetOp(e, sc)
	case *xquery.RangeExpr:
		return c.compileRange(e, sc)
	case *xquery.FuncCall:
		return c.compileFuncCall(e, sc)
	case *xquery.OrderedExpr:
		saved := c.mode
		c.mode = e.Mode
		q := c.compile(e.Expr, sc)
		c.mode = saved
		return q
	case *xquery.ElemCons:
		return c.compileElemCons(e, sc)
	default:
		c.errf("unsupported expression %T", e)
		return nil
	}
}

// --- Shared helpers ---

// litTable encodes a constant: loop × (pos:1, item:it).
func (c *compiler) litTable(loop *algebra.Node, it xdm.Item) *algebra.Node {
	lit := c.b.Lit([]string{"pos", "item"}, []xdm.Item{xdm.NewInt(1), it})
	return c.b.Cross(loop, lit)
}

// seqConcat assembles the sequence (e1, e2, …): parts tagged with a
// literal ord column, appended, renumbered by %pos1:<ord,pos>/iter. The
// renumbering % is what column dependency analysis deletes when the
// sequence flows into an order-indifferent context, turning ',' into a
// plain append (cf. Figure 10).
func (c *compiler) seqConcat(parts []*algebra.Node) *algebra.Node {
	switch len(parts) {
	case 0:
		return c.b.EmptyLit("iter", "pos", "item")
	case 1:
		return parts[0]
	}
	var u *algebra.Node
	for i, p := range parts {
		tagged := c.b.Cross(c.b.Keep(p, "iter", "pos", "item"), c.b.LitCol("ord", xdm.NewInt(int64(i))))
		if u == nil {
			u = tagged
		} else {
			u = c.b.Union(u, tagged)
		}
	}
	rn := algebra.WithOrigin(c.b.RowNum(u, "pos1",
		[]algebra.SortSpec{{Col: "ord"}, {Col: "pos"}}, "iter"), "sequence order")
	return c.b.Project(rn,
		algebra.ColPair{New: "iter", Old: "iter"},
		algebra.ColPair{New: "pos", Old: "pos1"},
		algebra.ColPair{New: "item", Old: "item"})
}

// liftCols maps a variable's table into a deeper loop through a map
// relation (cols outer, inner): Γ'(y) = π(iter:inner,pos,item)(map ⋈
// outer=iter Γ(y)), with extra pass-through columns (e.g. source-row
// provenance).
func (c *compiler) liftCols(v, m *algebra.Node, extra ...string) *algebra.Node {
	j := algebra.WithOrigin(c.b.Join(m, v, "outer", "iter"), "join (variable lifting)")
	proj := []algebra.ColPair{
		{New: "iter", Old: "inner"},
		{New: "pos", Old: "pos"},
		{New: "item", Old: "item"},
	}
	for _, col := range extra {
		proj = append(proj, algebra.ColPair{New: col, Old: col})
	}
	return c.b.Project(j, proj...)
}

// composeMap chains two maps: outer→mid and mid→inner give outer→inner.
func (c *compiler) composeMap(m1, m2 *algebra.Node) *algebra.Node {
	a := c.b.Project(m1, algebra.ColPair{New: "o", Old: "outer"}, algebra.ColPair{New: "mid", Old: "inner"})
	bq := c.b.Project(m2, algebra.ColPair{New: "mid2", Old: "outer"}, algebra.ColPair{New: "in2", Old: "inner"})
	j := c.b.Join(a, bq, "mid", "mid2")
	return c.b.Project(j, algebra.ColPair{New: "outer", Old: "o"}, algebra.ColPair{New: "inner", Old: "in2"})
}

// ebvIters returns the iterations (column iter) in which q's effective
// boolean value is true. Absent iterations are false by construction.
func (c *compiler) ebvIters(q *algebra.Node) *algebra.Node {
	agg := algebra.WithOrigin(
		c.b.Aggr(c.b.Keep(q, "iter", "item"), algebra.AggrEbv, "res", "item", "iter"),
		"where/EBV")
	return c.b.Project(c.b.Select(agg, "res"), algebra.ColPair{New: "iter", Old: "iter"})
}

// boolTable materializes a boolean result over a loop: iterations in t
// become true, the rest false.
func (c *compiler) boolTable(t, loop *algebra.Node) *algebra.Node {
	trueLit := c.b.Lit([]string{"pos", "item"}, []xdm.Item{xdm.NewInt(1), xdm.True})
	falseLit := c.b.Lit([]string{"pos", "item"}, []xdm.Item{xdm.NewInt(1), xdm.False})
	tt := c.b.Cross(t, trueLit)
	ff := c.b.Cross(c.b.Diff(loop, t, "iter"), falseLit)
	return c.b.UnionDisjoint(tt, ff, "iter")
}

// backMap re-assembles a for body's results in the enclosing loop:
// π(iter:outer, pos:pos1, item)(%pos1:<sortPre…,inner,pos>/outer(map ⋈ q)).
// Without extra sort keys this is the iter→seq order interaction — the
// operator behind 45 % of Q11's execution time in Table 2.
func (c *compiler) backMap(m, q *algebra.Node, sortPre []algebra.SortSpec) *algebra.Node {
	j := algebra.WithOrigin(c.b.Join(m, c.b.Keep(q, "iter", "pos", "item"), "inner", "iter"),
		"join (result mapping)")
	sort := append(append([]algebra.SortSpec{}, sortPre...),
		algebra.SortSpec{Col: "inner"}, algebra.SortSpec{Col: "pos"})
	rn := algebra.WithOrigin(c.b.RowNum(j, "pos1", sort, "outer"), "iter->seq order (3)")
	return c.b.Project(rn,
		algebra.ColPair{New: "iter", Old: "outer"},
		algebra.ColPair{New: "pos", Old: "pos1"},
		algebra.ColPair{New: "item", Old: "item"})
}

// atomized projects q to iter|item with nodes atomized (string values as
// xs:untypedAtomic).
func (c *compiler) atomized(q *algebra.Node) *algebra.Node {
	m := algebra.WithOrigin(c.b.Map1(c.b.Keep(q, "iter", "item"), algebra.UnAtomize, "av", "item"),
		"atomization")
	return c.b.Project(m, algebra.ColPair{New: "iter", Old: "iter"}, algebra.ColPair{New: "item", Old: "av"})
}

// guardCard wraps q in a cardinality check of at most one item per
// iteration (dynamic error otherwise), matching the singleton requirement
// of value comparisons and arithmetic.
func (c *compiler) guardCard(q *algebra.Node, what string) *algebra.Node {
	return c.b.CheckCard(q, nil, "iter", 0, 1, what)
}

// withPos turns an iter|item table into iter|pos|item with constant pos 1.
func (c *compiler) withPos1(q *algebra.Node) *algebra.Node {
	return c.b.Cross(q, c.b.LitCol("pos", xdm.NewInt(1)))
}
