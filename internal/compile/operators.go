package compile

import (
	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

var arithToBinFn = map[xdm.ArithOp]algebra.BinFn{
	xdm.OpAdd:  algebra.BArithAdd,
	xdm.OpSub:  algebra.BArithSub,
	xdm.OpMul:  algebra.BArithMul,
	xdm.OpDiv:  algebra.BArithDiv,
	xdm.OpIDiv: algebra.BArithIDiv,
	xdm.OpMod:  algebra.BArithMod,
}

func (c *compiler) compileArith(op xdm.ArithOp, le, re xquery.Expr, sc *frame) *algebra.Node {
	l := c.atomized(c.guardCard(c.compile(le, sc), "arithmetic operand"))
	r := c.atomized(c.guardCard(c.compile(re, sc), "arithmetic operand"))
	return c.combine(c.withPos1(l), c.withPos1(r), arithToBinFn[op], 0, "arithmetic")
}

// mapAtom applies fn to the one atomized item of e in each iteration;
// what names the operand in the cardinality error.
func (c *compiler) mapAtom(e xquery.Expr, fn algebra.UnFn, what string, sc *frame) *algebra.Node {
	a := c.atomized(c.guardCard(c.compile(e, sc), what))
	m := c.b.Map1(a, fn, "rv", "item")
	return c.withPos1(c.b.Project(m,
		algebra.ColPair{New: "iter", Old: "iter"},
		algebra.ColPair{New: "item", Old: "rv"}))
}

func (c *compiler) compileValueCmp(e *xquery.ValueCmp, sc *frame) *algebra.Node {
	l := c.atomized(c.guardCard(c.compile(e.L, sc), "comparison operand"))
	r := c.atomized(c.guardCard(c.compile(e.R, sc), "comparison operand"))
	return c.combine(c.withPos1(l), c.withPos1(r), algebra.BCmpVal, e.Op, "value comparison")
}

func (c *compiler) compileNodeCmp(e *xquery.NodeCmp, sc *frame) *algebra.Node {
	l := c.guardCard(c.compile(e.L, sc), "node comparison operand")
	r := c.guardCard(c.compile(e.R, sc), "node comparison operand")
	fn := algebra.BNodeBefore
	if e.Op == xquery.NodeIs {
		fn = algebra.BNodeIs
	}
	if e.Op == xquery.NodeAfter {
		l, r = r, l // a >> b  ≡  b << a
	}
	return c.combine(l, r, fn, 0, "node comparison")
}

// compileGeneralCmp implements the existential semantics: all pairs of
// atomized operand items within an iteration are compared; the iteration
// is true as soon as one pair matches. Normalization has wrapped both
// operands in fn:unordered() — the pair enumeration (the paper's implicit
// value join, cf. Q11) never observes their order. The heavy lifting —
// including value-join recognition — lives in generalCmpIters.
func (c *compiler) compileGeneralCmp(e *xquery.GeneralCmp, sc *frame) *algebra.Node {
	return c.boolTable(c.generalCmpIters(e, sc), sc.loop)
}
