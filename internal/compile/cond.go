package compile

import (
	"repro/internal/algebra"
	"repro/internal/xdm"
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

	// iters maps matched (aiter, biter) key pairs to the current
	// iterations in which they hold.
	var iters func(m *algebra.Node) *algebra.Node
	switch {
	case len(c.freeVars(ra)) == 0:
		// A closed operand is evaluated once, in the root's single
		// iteration, which every current iteration pairs with: an
		// iteration holds when one of its keys on the other side matched.
		iters = func(m *algebra.Node) *algebra.Node { return c.keyIters(c.b.Distinct(m, "aiter"), ka, "aiter") }
	case len(c.freeVars(la)) == 0:
		iters = func(m *algebra.Node) *algebra.Node { return c.keyIters(c.b.Distinct(m, "biter"), kb, "biter") }
	default:
		// Relate each current iteration to its keys on both sides and
		// keep those whose (aiter, biter) pair matched.
		bk := c.b.Project(kb,
			algebra.ColPair{New: "biter", Old: "biter"},
			algebra.ColPair{New: "it2", Old: "iter"})
		triple := algebra.WithOrigin(c.b.Join(ka, bk, "iter", "it2"), "join (iteration mapping)")
		iters = func(m *algebra.Node) *algebra.Node {
			hit := c.b.Semi(triple, m, "aiter", "biter")
			return c.b.Project(c.b.Distinct(hit, "iter"), algebra.ColPair{New: "iter", Old: "iter"})
		}
	}
	trueIters := iters(valueJoin(algebra.JoinTheta))

	// Error parity with the per-iteration semantics: an iteration whose
	// pairs include an incomparable one and no true one must raise the
	// type error (existential short-circuiting may hide errors behind a
	// true pair, but never turn pure errors into false).
	errOnly := c.b.Diff(iters(valueJoin(algebra.JoinIncomparable)), trueIters, "iter")
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
				return c.operandAt(e, si.srcFrame, keyCol, valCol), c.srcKeyed(si, sc, keyCol), true
			}
		}
	}
	fa := c.hoistFrame(e, sc)
	if fa == sc {
		return nil, nil, false
	}
	q := c.operandAt(e, fa, keyCol, valCol)
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

// operandAt compiles a comparison operand at frame f as atomized values
// keyed by f's iterations: (keyCol, valCol).
func (c *compiler) operandAt(e xquery.Expr, f *frame, keyCol, valCol string) *algebra.Node {
	return c.b.Project(c.atomized(c.compile(e, f)),
		algebra.ColPair{New: keyCol, Old: "iter"},
		algebra.ColPair{New: valCol, Old: "item"})
}

// keyIters maps a set of keys (column col) to the current iterations
// keyed by them; keyed relates keys to iterations (col, iter), one key
// per iteration.
func (c *compiler) keyIters(keys, keyed *algebra.Node, col string) *algebra.Node {
	kr := c.b.Project(keyed,
		algebra.ColPair{New: "k2", Old: col},
		algebra.ColPair{New: "iter", Old: "iter"})
	return c.b.Project(c.b.Join(keys, kr, col, "k2"), algebra.ColPair{New: "iter", Old: "iter"})
}

// conjuncts flattens the top-level `and` chain of a condition.
func conjuncts(e xquery.Expr, out []xquery.Expr) []xquery.Expr {
	if l, ok := condUnwrap(e).(*xquery.Logic); ok && l.Op == xquery.LogicAnd {
		return conjuncts(l.R, conjuncts(l.L, out))
	}
	return append(out, e)
}

// joinBound mints the iterations of a FLWOR's last for clause from the
// value join in its where clause — the join graph isolation of "XQuery
// Join Graph Isolation" for one join. The clause is `for $v in E2` with E2
// hoisted to frame g: qG holds E2's rows stamped with source ids (src),
// fSrc is the frame over those rows, sc the frame before the clause. When
// one conjunct of the where clause is a general comparison between an
// operand evaluated once per source row of $v and an operand that does not
// mention $v, the θ-join of the two keyed operand tables yields exactly
// the (sc iteration, source row) pairs that survive the where clause, and
// only those become iterations: the |sc| × |E2| pair space that lifting E2
// into the loop would build is never materialised, nor the join and
// semijoin that used to filter it.
//
// It returns the binding table (iter | pos | item | src, iter = sc's
// iterations) and the conjuncts left to apply — or nil and the where
// clause itself when no conjunct has that shape. lets are the clauses
// between the for clause and the where clause: an operand that mentions a
// variable they bind must see that binding, so it is not evaluated ahead
// of them.
func (c *compiler) joinBound(v string, where xquery.Expr, lets []xquery.Clause, qG *algebra.Node, fSrc, g, sc *frame) (*algebra.Node, []xquery.Expr) {
	conds := conjuncts(where, nil)
	for i, e := range conds {
		cmp, ok := condUnwrap(e).(*xquery.GeneralCmp)
		if !ok {
			continue
		}
		ops := [2]xquery.Expr{unwrapUnordered(cmp.L), unwrapUnordered(cmp.R)}
		s := -1 // the operand evaluated per source row
		for k := range ops {
			other := ops[1-k]
			if c.srcOperand(ops[k], v, fSrc, sc) && !c.freeVars(other)[v] && !c.containsConstructor(other) {
				s = k
			}
		}
		if s < 0 || c.rebinds(lets, ops[0]) || c.rebinds(lets, ops[1]) {
			continue
		}
		rest := append(append([]xquery.Expr{}, conds[:i]...), conds[i+1:]...)
		return c.mintPairs(cmp.Op, ops, s, qG, fSrc, g, sc), rest
	}
	return nil, []xquery.Expr{where}
}

// srcOperand reports whether e can be evaluated once per source row of the
// for-variable v (whose source frame is fSrc): e mentions v, builds no
// nodes, and its other free variables are visible from fSrc.
func (c *compiler) srcOperand(e xquery.Expr, v string, fSrc, sc *frame) bool {
	fv := c.freeVars(e)
	if !fv[v] || c.containsConstructor(e) {
		return false
	}
	for name := range fv {
		if name == v {
			continue
		}
		if fr, _ := sc.lookup(name); fr == nil || fr.depth > fSrc.parent.depth {
			return false
		}
	}
	return true
}

// rebinds reports whether one of the let clauses binds a free variable
// of e.
func (c *compiler) rebinds(lets []xquery.Clause, e xquery.Expr) bool {
	fv := c.freeVars(e)
	for _, cl := range lets {
		if l, ok := cl.(*xquery.LetClause); ok && fv[l.Var] {
			return true
		}
	}
	return false
}

// mintPairs builds joinBound's binding table for the comparison
// ops[0] op ops[1], ops[s] being the operand evaluated per source row.
func (c *compiler) mintPairs(op xdm.CmpOp, ops [2]xquery.Expr, s int, qG *algebra.Node, fSrc, g, sc *frame) *algebra.Node {
	cols := [2][2]string{{"aiter", "aval"}, {"biter", "bval"}}
	var vals [2]*algebra.Node
	// keyed relates the other operand's keys to sc's iterations; nil when
	// they are sc's iterations themselves.
	var keyed *algebra.Node
	for k, e := range ops {
		key, val := cols[k][0], cols[k][1]
		if k == s {
			vals[k] = c.operandAt(e, fSrc, key, val)
		} else if q, kd, ok := c.cmpSide(e, sc, key, val); ok {
			vals[k], keyed = q, kd
		} else {
			vals[k] = c.operandAt(e, sc, key, val)
		}
	}
	srcKey, key := cols[s][0], cols[1-s][0]

	// A hoisted E2 that still depends on an enclosing iteration (g below
	// the root's single iteration) has rows per iteration of g: a pair is
	// an iteration only if its source row comes from the sc iteration's own
	// evaluation of E2.
	var srcG, occ *algebra.Node
	if !g.rootSpace() {
		srcG = c.b.Project(qG,
			algebra.ColPair{New: "src2", Old: "src"},
			algebra.ColPair{New: "giter", Old: "iter"})
		if m := c.mapBetween(g, sc); m != nil {
			occ = c.b.Project(m,
				algebra.ColPair{New: "giter", Old: "outer"},
				algebra.ColPair{New: "iter", Old: "inner"})
		} else {
			occ = c.b.Project(sc.loop,
				algebra.ColPair{New: "giter", Old: "iter"},
				algebra.ColPair{New: "iter", Old: "iter"})
		}
	}
	// pairs returns the (iter, src) pairs whose values compare under mode.
	pairs := func(mode algebra.JoinMode) *algebra.Node {
		j := c.b.Distinct(algebra.WithOrigin(
			c.b.ThetaJoin(vals[0], vals[1], "aval", "bval", op, mode), "join (general comparison)"),
			"aiter", "biter")
		iter := key
		if keyed != nil {
			kr := c.b.Project(keyed,
				algebra.ColPair{New: "k2", Old: key},
				algebra.ColPair{New: "iter", Old: "iter"})
			j, iter = c.b.Join(j, kr, key, "k2"), "iter"
		}
		p := c.b.Project(j,
			algebra.ColPair{New: "iter", Old: iter},
			algebra.ColPair{New: "src", Old: srcKey})
		if occ != nil {
			p = c.b.Keep(c.b.Semi(c.b.Join(p, srcG, "src", "src2"), occ, "giter", "iter"), "iter", "src")
		}
		return p
	}
	hits := pairs(algebra.JoinTheta)
	// Error parity (see generalCmpIters): an iteration whose value pairs
	// include an incomparable one and no true one raises.
	errOnly := c.b.Diff(pairs(algebra.JoinIncomparable), hits, "iter", "src")
	guard := c.b.CheckCard(errOnly, nil, "iter", 0, 0, "general comparison")
	hits = c.b.Diff(hits, guard, "iter", "src")
	rows := c.b.Project(qG,
		algebra.ColPair{New: "src2", Old: "src"},
		algebra.ColPair{New: "pos", Old: "pos"},
		algebra.ColPair{New: "item", Old: "item"})
	return algebra.WithOrigin(c.b.Join(hits, rows, "src", "src2"), "join (variable lifting)")
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
