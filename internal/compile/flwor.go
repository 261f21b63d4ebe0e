package compile

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// bindResult is the relational encoding of one for clause.
type bindResult struct {
	varTable *algebra.Node // $x: iter|pos|item with iter = new iteration ids
	posTable *algebra.Node // $p (nil without at $p)
	newLoop  *algebra.Node // iter column of new iteration ids
	mapRel   *algebra.Node // outer|inner relating enclosing to new iterations
	numbered *algebra.Node // the full numbered binding table (bind column added)
}

// bindFor implements Rules BIND and BIND# for "$x [at $p] in e1". qIn is
// the compiled binding sequence. useHash selects BIND# (# instead of %);
// positional variables always force a dense per-iteration renumbering for
// $p — the case §2.2 shows cannot be expressed by language-level rewrites.
// Extra columns (e.g. source-row provenance) ride along into numbered.
func (c *compiler) bindFor(qIn *algebra.Node, hasPosVar, useHash bool, extra ...string) bindResult {
	cols := append([]string{"iter", "pos", "item"}, extra...)
	q := c.b.Keep(qIn, cols...)
	posCol := "pos"
	if hasPosVar {
		// Dense rank of pos within each iteration: the value $p is bound to.
		q = algebra.WithOrigin(
			c.b.RowNum(q, "posd", []algebra.SortSpec{{Col: "pos"}}, "iter"),
			"seq->iter order (3)")
		posCol = "posd"
	}
	var qv *algebra.Node
	if useHash {
		qv = algebra.WithOrigin(c.b.RowID(q, "bind"), "for binding (#)")
	} else {
		qv = algebra.WithOrigin(c.b.RowNum(q, "bind",
			[]algebra.SortSpec{{Col: "iter"}, {Col: posCol}}, ""), "seq->iter order (3)")
	}
	res := bindResult{
		varTable: c.withPos1(c.b.Project(qv,
			algebra.ColPair{New: "iter", Old: "bind"},
			algebra.ColPair{New: "item", Old: "item"})),
		newLoop: c.b.Project(qv, algebra.ColPair{New: "iter", Old: "bind"}),
		mapRel: c.b.Project(qv,
			algebra.ColPair{New: "outer", Old: "iter"},
			algebra.ColPair{New: "inner", Old: "bind"}),
		numbered: qv,
	}
	if hasPosVar {
		res.posTable = c.withPos1(c.b.Project(qv,
			algebra.ColPair{New: "iter", Old: "bind"},
			algebra.ColPair{New: "item", Old: posCol}))
	}
	return res
}

func (c *compiler) compileFLWOR(fl *xquery.FLWOR, sc *frame) *algebra.Node {
	start := sc
	cur := sc
	// A FLWOR with a plain (non-stable) order by renders its binding order
	// unobservable — case (f) of the paper's list: the sort re-establishes
	// the result order, so BIND# applies even under ordering mode ordered.
	orderByRelaxes := c.opts.Indifference && len(fl.Order) > 0 && !fl.Stable

	// conds are the where conditions still to apply once every clause is
	// bound; minting the last for clause from a value join consumes one.
	var conds []xquery.Expr
	if fl.Where != nil {
		conds = []xquery.Expr{fl.Where}
	}
	lastFor := -1
	for i, cl := range fl.Clauses {
		if _, ok := cl.(*xquery.ForClause); ok {
			lastFor = i
		}
	}

	for i, cl := range fl.Clauses {
		switch cl := cl.(type) {
		case *xquery.LetClause:
			cur = cur.withVar(cl.Var, c.compile(cl.Expr, cur))
		case *xquery.ForClause:
			useHash := c.unordered() || orderByRelaxes
			g := c.hoistFrame(cl.In, cur)
			if g != cur {
				// Hoisted binding sequence: evaluate it once at frame g,
				// stamp source-row ids, and keep the provenance through
				// the binding so that where clauses over only this
				// variable can be value-joined on source rows (join
				// recognition).
				qG := c.b.RowID(c.b.Keep(c.compile(cl.In, g), "iter", "pos", "item"), "src")
				fSrc := c.srcFrame(cl.Var, qG, g, cur)
				var bound *algebra.Node
				if i == lastFor && cl.PosVar == "" && fl.Where != nil {
					bound, conds = c.joinBound(cl.Var, fl.Where, fl.Clauses[i+1:], qG, fSrc, g, cur)
				}
				if bound == nil {
					bound = c.liftTo(qG, g, cur, "src")
				}
				b := c.bindFor(bound, cl.PosVar != "", useHash, "src")
				srcMap := c.b.Project(b.numbered,
					algebra.ColPair{New: "fiter", Old: "bind"},
					algebra.ColPair{New: "src", Old: "src"})
				cur = cur.child(b.mapRel, b.newLoop)
				cur.bind(cl.Var, b.varTable)
				cur.srcs = map[string]*srcInfo{cl.Var: {srcFrame: fSrc, forFrame: cur, srcMap: srcMap}}
				if cl.PosVar != "" {
					cur.bind(cl.PosVar, b.posTable)
				}
				continue
			}
			qIn := c.compile(cl.In, cur)
			b := c.bindFor(qIn, cl.PosVar != "", useHash)
			cur = cur.child(b.mapRel, b.newLoop)
			cur.bind(cl.Var, b.varTable)
			if cl.PosVar != "" {
				cur.bind(cl.PosVar, b.posTable)
			}
		}
	}

	if len(conds) > 0 {
		trueLoop := c.condIters(conds[0], cur)
		for _, e := range conds[1:] {
			trueLoop = c.b.Semi(trueLoop, c.condIters(e, cur), "iter")
		}
		cur = cur.restrict(c, trueLoop)
	}

	qRet := c.compile(fl.Return, cur)
	totalMap := c.mapBetween(start, cur)

	if len(fl.Order) == 0 {
		if totalMap == nil {
			// Let-only FLWOR: the iteration space is unchanged, the
			// return value is the result.
			return c.b.Keep(qRet, "iter", "pos", "item")
		}
		return c.backMap(totalMap, qRet, nil)
	}
	if totalMap == nil {
		totalMap = c.b.Project(cur.loop,
			algebra.ColPair{New: "outer", Old: "iter"},
			algebra.ColPair{New: "inner", Old: "iter"})
	}

	// order by: compute each key per iteration (atomized singleton; absent
	// keys become the Null marker so that empty least/greatest applies),
	// join the key columns onto the return mapping, and sort by them ahead
	// of the binding order.
	j := algebra.WithOrigin(
		c.b.Join(totalMap, c.b.Keep(qRet, "iter", "pos", "item"), "inner", "iter"),
		"join (result mapping)")
	var sortPre []algebra.SortSpec
	for i, spec := range fl.Order {
		keyCol := keyColName(i)
		kq := c.guardCard(c.compile(spec.Key, cur), "order by key")
		kv := c.b.Project(c.atomized(kq),
			algebra.ColPair{New: "kiter", Old: "iter"},
			algebra.ColPair{New: keyCol, Old: "item"})
		// Fill iterations with an empty key.
		missing := c.b.Diff(c.b.Project(cur.loop, algebra.ColPair{New: "kiter", Old: "iter"}), kv, "kiter")
		filled := c.b.UnionDisjoint(kv, c.b.Cross(missing, c.b.LitCol(keyCol, xdm.Null)), "kiter")
		j = c.b.Join(j, filled, "inner", "kiter")
		j = c.dropCols(j, "kiter")
		sortPre = append(sortPre, algebra.SortSpec{
			Col: keyCol, Desc: spec.Descending, EmptyGreatest: spec.EmptyGreatest,
		})
	}
	sort := append(sortPre, algebra.SortSpec{Col: "inner"}, algebra.SortSpec{Col: "pos"})
	rn := algebra.WithOrigin(c.b.RowNum(j, "pos1", sort, "outer"), "order by sort")
	return c.b.Project(rn,
		algebra.ColPair{New: "iter", Old: "outer"},
		algebra.ColPair{New: "pos", Old: "pos1"},
		algebra.ColPair{New: "item", Old: "item"})
}

func keyColName(i int) string {
	return fmt.Sprintf("key%d", i)
}

// dropCols projects away the named columns, keeping everything else.
func (c *compiler) dropCols(q *algebra.Node, drop ...string) *algebra.Node {
	var proj []algebra.ColPair
	for _, col := range q.Schema() {
		dropped := false
		for _, d := range drop {
			if col == d {
				dropped = true
				break
			}
		}
		if !dropped {
			proj = append(proj, algebra.ColPair{New: col, Old: col})
		}
	}
	return c.b.Project(q, proj...)
}

func (c *compiler) compileQuantified(q *xquery.Quantified, sc *frame) *algebra.Node {
	return c.boolTable(c.quantIters(q, sc), sc.loop)
}

// witnessOuter maps a set of inner iterations (col iter) back to the
// distinct outer iterations that have at least one witness.
func (c *compiler) witnessOuter(m, inner *algebra.Node) *algebra.Node {
	if m == nil { // no binding introduced a new iteration space
		return inner
	}
	lp := c.b.Project(inner, algebra.ColPair{New: "inner", Old: "iter"})
	hits := c.b.Semi(m, lp, "inner")
	return c.b.Project(c.b.Distinct(hits, "outer"), algebra.ColPair{New: "iter", Old: "outer"})
}

func (c *compiler) compileIf(e *xquery.IfExpr, sc *frame) *algebra.Node {
	loopT := c.condIters(e.Cond, sc)
	loopF := c.b.Diff(sc.loop, loopT, "iter")
	qThen := c.compile(e.Then, sc.restrict(c, loopT))
	qElse := c.compile(e.Else, sc.restrict(c, loopF))
	return c.b.UnionDisjoint(c.b.Keep(qThen, "iter", "pos", "item"), c.b.Keep(qElse, "iter", "pos", "item"), "iter")
}

func (c *compiler) compileLogic(e *xquery.Logic, sc *frame) *algebra.Node {
	return c.boolTable(c.condIters(e, sc), sc.loop)
}

// combine joins two singleton-per-iteration tables on iter and applies a
// binary function, yielding iter|pos|item.
func (c *compiler) combine(l, r *algebra.Node, fn algebra.BinFn, cmp xdm.CmpOp, origin string) *algebra.Node {
	lp := c.b.Keep(l, "iter", "item")
	rp := c.b.Project(r,
		algebra.ColPair{New: "iter2", Old: "iter"},
		algebra.ColPair{New: "item2", Old: "item"})
	j := c.b.Join(lp, rp, "iter", "iter2")
	op := algebra.WithOrigin(c.b.BinOp(j, fn, cmp, "res", "item", "item2"), origin)
	val := c.b.Project(op,
		algebra.ColPair{New: "iter", Old: "iter"},
		algebra.ColPair{New: "item", Old: "res"})
	return c.withPos1(val)
}
