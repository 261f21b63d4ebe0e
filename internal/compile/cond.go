package compile

import (
	"repro/internal/algebra"
	"repro/internal/xquery"
)

// This file implements the compiler's treatment of boolean *conditions*
// (where clauses, if conditions, quantifier bodies): instead of
// materializing a complete boolean table over the loop and re-deriving
// the true iterations from it, conditions compile directly to the set of
// iterations in which they hold (column iter). Together with the θ-join
// evaluation of general comparisons below, this is this compiler's
// rendition of Pathfinder's join recognition ([9]) — the reason Table 2
// of the paper shows a "join" row rather than per-pair predicate
// evaluation.

// condUnwrap strips the wrappers normalization puts around conditions
// (fn:unordered, fn:boolean — both EBV-transparent).
func condUnwrap(e xquery.Expr) xquery.Expr {
	for {
		fc, ok := e.(*xquery.FuncCall)
		if !ok || len(fc.Args) != 1 {
			return e
		}
		if fc.Name != "unordered" && fc.Name != "boolean" {
			return e
		}
		e = fc.Args[0]
	}
}

// condIters compiles a condition to the iterations of sc.loop in which
// its effective boolean value is true.
func (c *compiler) condIters(e xquery.Expr, sc *frame) *algebra.Node {
	switch e := condUnwrap(e).(type) {
	case *xquery.GeneralCmp:
		return c.generalCmpIters(e, sc)
	case *xquery.Logic:
		l := c.condIters(e.L, sc)
		r := c.condIters(e.R, sc)
		if e.Op == xquery.LogicAnd {
			return c.b.Semi(l, r, "iter")
		}
		return c.b.Distinct(c.b.Union(l, r), "iter")
	case *xquery.Quantified:
		return c.quantIters(e, sc)
	case *xquery.FuncCall:
		switch e.Name {
		case "not":
			if len(e.Args) == 1 {
				return c.b.Diff(sc.loop, c.condIters(e.Args[0], sc), "iter")
			}
		case "exists":
			if len(e.Args) == 1 {
				return c.b.Distinct(c.compile(e.Args[0], sc), "iter")
			}
		case "empty":
			if len(e.Args) == 1 {
				return c.b.Diff(sc.loop, c.b.Distinct(c.compile(e.Args[0], sc), "iter"), "iter")
			}
		case "true":
			return sc.loop
		case "false":
			return c.b.EmptyLit("iter")
		}
		return c.ebvIters(c.compile(e, sc))
	default:
		return c.ebvIters(c.compile(e, sc))
	}
}

// generalCmpIters returns the iterations in which the existential general
// comparison holds. When both operands are loop-invariant relative to
// ancestor frames, the comparison is evaluated as a *value join* between
// the (small) operand tables, and the loop's iterations are matched
// against the join result through the frames' map relations — rather than
// lifting both operands into the (large) iteration space and comparing
// per iteration. This is the implicit join of XMark Q8/Q9/Q11/Q12 that
// Pathfinder's code generator "picks up" (§5).
func (c *compiler) generalCmpIters(e *xquery.GeneralCmp, sc *frame) *algebra.Node {
	la := condUnwrap(e.L)
	ra := condUnwrap(e.R)
	qa, ka, okA := c.cmpSide(la, sc, "aiter", "aval")
	qb, kb, okB := c.cmpSide(ra, sc, "biter", "bval")
	if !okA || !okB {
		// At least one side genuinely varies with the current loop:
		// evaluate per iteration (the compositional default).
		l := c.atomized(c.compile(e.L, sc))
		r := c.atomized(c.compile(e.R, sc))
		rp := c.b.Project(r,
			algebra.ColPair{New: "iter2", Old: "iter"},
			algebra.ColPair{New: "item2", Old: "item"})
		j := algebra.WithOrigin(c.b.Join(l, rp, "iter", "iter2"), "join (general comparison)")
		cmp := algebra.WithOrigin(
			c.b.BinOp(j, algebra.BCmpGen, e.Op, "res", "item", "item2"),
			"general comparison")
		return c.b.Distinct(c.b.Select(cmp, "res"), "iter")
	}

	// Value join between the two (small) keyed operand tables, handed to
	// the engine whole: the θ-join emits only the (a, b) combinations for
	// which the comparison holds. A combination whose comparison is a type
	// error does not match — the join enumerates combinations across
	// iterations, and one that never co-occurs in an iteration must not
	// raise — the same relaxation Pathfinder inherits from mapping
	// comparisons onto relational joins.
	valueJoin := func(mode algebra.JoinMode) *algebra.Node {
		j := algebra.WithOrigin(c.b.ThetaJoin(qa, qb, "aval", "bval", e.Op, mode), "join (general comparison)")
		return c.b.Distinct(j, "aiter", "biter")
	}
	matches := valueJoin(algebra.JoinTheta)

	// Relate each current iteration to its keys on both sides and keep
	// those whose (aiter, biter) pair matched.
	bk := c.b.Project(kb,
		algebra.ColPair{New: "biter", Old: "biter"},
		algebra.ColPair{New: "it2", Old: "iter"})
	triple := algebra.WithOrigin(c.b.Join(ka, bk, "iter", "it2"), "join (iteration mapping)")
	hit := c.b.Semi(triple, matches, "aiter", "biter")
	trueIters := c.b.Project(c.b.Distinct(hit, "iter"), algebra.ColPair{New: "iter", Old: "iter"})

	// Error parity with the per-iteration semantics: an iteration whose
	// pairs include an incomparable one and no true one must raise the
	// type error (existential short-circuiting may hide errors behind a
	// true pair, but never turn pure errors into false).
	errHit := c.b.Semi(triple, valueJoin(algebra.JoinIncomparable), "aiter", "biter")
	errIters := c.b.Project(c.b.Distinct(errHit, "iter"), algebra.ColPair{New: "iter", Old: "iter"})
	errOnly := c.b.Diff(errIters, trueIters, "iter")
	guard := c.b.CheckCard(errOnly, nil, "iter", 0, 0, "general comparison")
	// Subtracting the (always empty on success) guard forces its
	// evaluation without changing the result.
	return c.b.Diff(trueIters, guard, "iter")
}

// cmpSide prepares one operand of a join-evaluated comparison: the
// atomized operand values keyed by some coarser iteration space (keyCol),
// plus the map from keys to current-loop iterations. Two key spaces are
// recognized:
//
//   - source rows: the operand mentions exactly one variable, a for-var
//     whose binding sequence was hoisted — values are computed once per
//     binding-sequence row (XMark Q8/Q9/Q11/Q12's inner side);
//   - ancestor frames: the operand is loop-invariant relative to an
//     ancestor — values are computed once per ancestor iteration.
//
// ok is false when the operand genuinely varies with the current loop.
func (c *compiler) cmpSide(e xquery.Expr, sc *frame, keyCol, valCol string) (vals, keyed *algebra.Node, ok bool) {
	fv := c.freeVars(e)
	if len(fv) == 1 && !c.containsConstructor(e) {
		for name := range fv {
			if si := sc.lookupSrc(name); si != nil {
				q := c.b.Project(c.atomized(c.compile(e, si.srcFrame)),
					algebra.ColPair{New: keyCol, Old: "iter"},
					algebra.ColPair{New: valCol, Old: "item"})
				return q, c.srcKeyed(si, sc, keyCol), true
			}
		}
	}
	fa := c.hoistFrame(e, sc)
	if fa == sc {
		return nil, nil, false
	}
	q := c.b.Project(c.atomized(c.compile(e, fa)),
		algebra.ColPair{New: keyCol, Old: "iter"},
		algebra.ColPair{New: valCol, Old: "item"})
	m := c.mapBetween(fa, sc)
	if m == nil {
		keyed = c.b.Project(sc.loop,
			algebra.ColPair{New: keyCol, Old: "iter"},
			algebra.ColPair{New: "iter", Old: "iter"})
	} else {
		keyed = c.b.Project(m,
			algebra.ColPair{New: keyCol, Old: "outer"},
			algebra.ColPair{New: "iter", Old: "inner"})
	}
	return q, keyed, true
}

// srcKeyed renders a variable's source map as (keyCol, iter) relative to
// the current frame, composing with any restriction frames between the
// for clause and sc.
func (c *compiler) srcKeyed(si *srcInfo, sc *frame, keyCol string) *algebra.Node {
	base := c.b.Project(si.srcMap,
		algebra.ColPair{New: keyCol, Old: "src"},
		algebra.ColPair{New: "iter", Old: "fiter"})
	if sc == si.forFrame {
		return base
	}
	m := c.mapBetween(si.forFrame, sc) // outer = forFrame iters, inner = sc iters
	if m == nil {
		return base
	}
	mr := c.b.Project(m,
		algebra.ColPair{New: "o2", Old: "outer"},
		algebra.ColPair{New: "i2", Old: "inner"})
	j := c.b.Join(base, mr, "iter", "o2")
	return c.b.Project(j,
		algebra.ColPair{New: keyCol, Old: keyCol},
		algebra.ColPair{New: "iter", Old: "i2"})
}

// quantIters returns the outer iterations for which the quantifier holds.
func (c *compiler) quantIters(q *xquery.Quantified, sc *frame) *algebra.Node {
	cur := sc
	for _, v := range q.Vars {
		qIn := c.compile(v.In, cur)
		b := c.bindFor(qIn, false, c.opts.Indifference)
		cur = cur.child(b.mapRel, b.newLoop)
		cur.bind(v.Var, b.varTable)
	}
	sat := c.condIters(q.Satisfies, cur)
	totalMap := c.mapBetween(sc, cur)
	if q.Every {
		unsat := c.b.Diff(cur.loop, sat, "iter")
		bad := c.witnessOuter(totalMap, unsat)
		return c.b.Diff(sc.loop, bad, "iter")
	}
	return c.witnessOuter(totalMap, sat)
}
