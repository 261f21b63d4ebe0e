package compile

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// fillDefault completes an iter|item table over a loop: iterations with
// no row receive the default item. (This is how the compiler expresses
// fn:count(()) = 0, fn:string(()) = "" etc. with plain algebra: disjoint
// union with the loop difference, as Pathfinder does.)
func (c *compiler) fillDefault(q, loop *algebra.Node, def xdm.Item) *algebra.Node {
	present := c.b.Distinct(q, "iter")
	missing := c.b.Diff(loop, present, "iter")
	return c.b.UnionDisjoint(c.b.Keep(q, "iter", "item"), c.b.Cross(missing, c.b.LitCol("item", def)), "iter")
}

func (c *compiler) compileFuncCall(e *xquery.FuncCall, sc *frame) *algebra.Node {
	argn := func(n int) {
		if len(e.Args) != n {
			c.errf("%s expects %d argument(s), got %d", e.Name, n, len(e.Args))
		}
	}
	switch e.Name {
	case "unordered":
		argn(1)
		q := c.compile(e.Args[0], sc)
		if !c.opts.Indifference {
			// §6: fn:unordered() as the identity function — the baseline.
			return q
		}
		// Rule FN:UNORDERED: #pos · π(iter,item) overwrites any sequence
		// order information in q.
		return c.b.Keep(algebra.WithOrigin(
			c.b.RowID(c.b.Keep(q, "iter", "item"), "pos"), "fn:unordered"),
			"iter", "pos", "item")

	case "doc":
		argn(1)
		lit, ok := e.Args[0].(*xquery.StrLit)
		if !ok {
			c.errf("doc() requires a string literal URI")
		}
		d := algebra.WithOrigin(c.b.Doc(lit.Val), "document access")
		return c.b.Cross(sc.loop, c.b.Cross(d, c.b.LitCol("pos", xdm.NewInt(1))))

	case "count":
		argn(1)
		q := c.compile(e.Args[0], sc)
		agg := algebra.WithOrigin(
			c.b.Aggr(c.b.Keep(q, "iter", "item"), algebra.AggrCount, "res", "", "iter"),
			"fn:count")
		val := c.b.Project(agg,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "res"})
		return c.withPos1(c.fillDefault(val, sc.loop, xdm.NewInt(0)))

	case "sum", "avg", "max", "min":
		argn(1)
		fn := map[string]algebra.AggrFn{
			"sum": algebra.AggrSum, "avg": algebra.AggrAvg,
			"max": algebra.AggrMax, "min": algebra.AggrMin,
		}[e.Name]
		a := c.atomized(c.compile(e.Args[0], sc))
		agg := algebra.WithOrigin(c.b.Aggr(a, fn, "res", "item", "iter"), "fn:"+e.Name)
		val := c.b.Project(agg,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "res"})
		if e.Name == "sum" {
			return c.withPos1(c.fillDefault(val, sc.loop, xdm.NewInt(0)))
		}
		return c.withPos1(val)

	case "empty", "exists":
		argn(1)
		q := c.compile(e.Args[0], sc)
		t := c.b.Distinct(q, "iter")
		if e.Name == "empty" {
			t = c.b.Diff(sc.loop, t, "iter")
		}
		return c.boolTable(t, sc.loop)

	case "boolean", "not":
		argn(1)
		t := c.ebvIters(c.compile(e.Args[0], sc))
		if e.Name == "not" {
			t = c.b.Diff(sc.loop, t, "iter")
		}
		return c.boolTable(t, sc.loop)

	case "true":
		argn(0)
		return c.litTable(sc.loop, xdm.True)
	case "false":
		argn(0)
		return c.litTable(sc.loop, xdm.False)

	case "string":
		argn(1)
		return c.withPos1(c.stringValue(e.Args[0], sc))

	case "data":
		argn(1)
		q := c.b.Keep(c.compile(e.Args[0], sc), "iter", "pos", "item")
		m := algebra.WithOrigin(c.b.Map1(q, algebra.UnAtomize, "av", "item"), "atomization")
		return c.b.Project(m,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "pos", Old: "pos"},
			algebra.ColPair{New: "item", Old: "av"})

	case "number":
		argn(1)
		a := c.atomized(c.guardCard(c.compile(e.Args[0], sc), "fn:number"))
		m := c.b.Map1(a, algebra.UnNumber, "nv", "item")
		val := c.b.Project(m,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "nv"})
		return c.withPos1(c.fillDefault(val, sc.loop, xdm.NewDouble(math.NaN())))

	case "string-length":
		argn(1)
		s := c.stringValue(e.Args[0], sc)
		m := c.b.Map1(c.b.Keep(s, "iter", "item"), algebra.UnStringLength, "len", "item")
		val := c.b.Project(m,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "len"})
		return c.withPos1(val)

	case "contains", "starts-with", "ends-with":
		argn(2)
		l := c.withPos1(c.stringValue(e.Args[0], sc))
		r := c.withPos1(c.stringValue(e.Args[1], sc))
		fn := algebra.BContains
		switch e.Name {
		case "starts-with":
			fn = algebra.BStartsWith
		case "ends-with":
			fn = algebra.BEndsWith
		}
		return c.combine(l, r, fn, 0, "fn:"+e.Name)

	case "normalize-space", "upper-case", "lower-case":
		argn(1)
		fn := map[string]algebra.UnFn{
			"normalize-space": algebra.UnNormalizeSpace,
			"upper-case":      algebra.UnUpperCase,
			"lower-case":      algebra.UnLowerCase,
		}[e.Name]
		sv := c.stringValue(e.Args[0], sc)
		m := c.b.Map1(c.b.Keep(sv, "iter", "item"), fn, "sv2", "item")
		return c.withPos1(c.b.Project(m,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "sv2"}))

	case "round", "floor", "ceiling", "abs":
		argn(1)
		fn := map[string]algebra.UnFn{
			"round": algebra.UnRound, "floor": algebra.UnFloor,
			"ceiling": algebra.UnCeiling, "abs": algebra.UnAbs,
		}[e.Name]
		return c.mapAtom(e.Args[0], fn, "fn:"+e.Name, sc)

	case "substring":
		if len(e.Args) != 2 && len(e.Args) != 3 {
			c.errf("substring expects 2 or 3 arguments")
		}
		s := c.b.Project(c.stringValue(e.Args[0], sc),
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "sv", Old: "item"})
		st := c.b.Project(c.atomized(c.guardCard(c.compile(e.Args[1], sc), "substring start")),
			algebra.ColPair{New: "iter2", Old: "iter"},
			algebra.ColPair{New: "st", Old: "item"})
		j := c.dropCols(c.b.Join(s, st, "iter", "iter2"), "iter2")
		var op *algebra.Node
		if len(e.Args) == 2 {
			op = c.b.BinOp(j, algebra.BSubstr2, 0, "res", "sv", "st")
		} else {
			ln := c.b.Project(c.atomized(c.guardCard(c.compile(e.Args[2], sc), "substring length")),
				algebra.ColPair{New: "iter3", Old: "iter"},
				algebra.ColPair{New: "ln", Old: "item"})
			j = c.dropCols(c.b.Join(j, ln, "iter", "iter3"), "iter3")
			op = c.b.BinOp3(j, algebra.BSubstr3, "res", "sv", "st", "ln")
		}
		algebra.WithOrigin(op, "fn:substring")
		return c.withPos1(c.b.Project(op,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "res"}))

	case "string-join":
		argn(2)
		sep, ok := e.Args[1].(*xquery.StrLit)
		if !ok {
			c.errf("string-join separator must be a string literal in compiled plans")
		}
		q := c.b.Keep(c.compile(e.Args[0], sc), "iter", "pos", "item")
		// string-join is genuinely order sensitive: it consumes pos, so
		// the order bookkeeping upstream stays alive in any ordering mode.
		sj := algebra.WithOrigin(c.b.AggrJoin(q, "res", "item", "iter", sep.Val), "fn:string-join")
		val := c.b.Project(sj,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "res"})
		return c.withPos1(c.fillDefault(val, sc.loop, xdm.NewString("")))

	case "concat":
		if len(e.Args) < 2 {
			c.errf("concat expects at least 2 arguments")
		}
		out := c.withPos1(c.stringValue(e.Args[0], sc))
		for _, a := range e.Args[1:] {
			out = c.combine(out, c.withPos1(c.stringValue(a, sc)), algebra.BConcat, 0, "fn:concat")
		}
		return out

	case "distinct-values":
		argn(1)
		q := c.b.Keep(c.compile(e.Args[0], sc), "iter", "pos", "item")
		a := c.b.Map1(q, algebra.UnAtomize, "av", "item")
		// Physically order by sequence position so the engine's
		// keep-first distinct matches first-occurrence order; the column
		// itself is unused and column analysis may prune the sort —
		// fn:distinct-values order is implementation-dependent anyway.
		srt := c.b.RowNum(a, "posd", []algebra.SortSpec{{Col: "pos"}}, "iter")
		d := algebra.WithOrigin(c.b.Distinct(srt, "iter", "av"), "fn:distinct-values")
		val := c.b.Project(d,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "av"})
		return c.b.Keep(c.b.RowID(val, "pos"), "iter", "pos", "item")

	case "zero-or-one", "exactly-one", "one-or-more":
		argn(1)
		q := c.b.Keep(c.compile(e.Args[0], sc), "iter", "pos", "item")
		switch e.Name {
		case "zero-or-one":
			return c.b.CheckCard(q, nil, "iter", 0, 1, "fn:zero-or-one")
		case "exactly-one":
			return c.b.CheckCard(q, sc.loop, "iter", 1, 1, "fn:exactly-one")
		default:
			return c.b.CheckCard(q, sc.loop, "iter", 1, -1, "fn:one-or-more")
		}

	case "name", "local-name":
		argn(1)
		q := c.guardCard(c.compile(e.Args[0], sc), "fn:"+e.Name)
		m := c.b.Map1(c.b.Keep(q, "iter", "item"), algebra.UnNameOf, "nm", "item")
		val := c.b.Project(m,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "nm"})
		return c.withPos1(c.fillDefault(val, sc.loop, xdm.NewString("")))

	case "root":
		argn(1)
		q := c.guardCard(c.compile(e.Args[0], sc), "fn:root")
		m := c.b.Map1(c.b.Keep(q, "iter", "item"), algebra.UnRoot, "rt", "item")
		val := c.b.Project(m,
			algebra.ColPair{New: "iter", Old: "iter"},
			algebra.ColPair{New: "item", Old: "rt"})
		return c.withPos1(val)

	case "last", "position":
		c.errf("%s() is supported only in positional predicates", e.Name)
		return nil

	default:
		c.errf("unknown function %s#%d", e.Name, len(e.Args))
		return nil
	}
}
