package engine

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

func (ex *Exec) evalBinOp(n *algebra.Node, in *Table) (*Table, error) {
	l, r := in.Col(n.LCol), in.Col(n.RCol)
	var tc *xdm.Column
	if n.TCol != "" {
		tc = in.Col(n.TCol)
	}
	rows := in.NumRows()
	if tc == nil {
		if col, ok, err := ex.typedBinOp(n, l, r); ok {
			if err != nil {
				return nil, err
			}
			return in.WithColumn(n.Res, col), nil
		}
	}
	out := xdm.GetItems(rows)
	for i := 0; i < rows; i++ {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				xdm.PutItems(out)
				return nil, err
			}
		}
		var v xdm.Item
		var err error
		if tc != nil {
			v, err = ex.applyTernFn(n, l.Get(i), r.Get(i), tc.Get(i))
		} else {
			v, err = ex.applyBinFn(n, l.Get(i), r.Get(i))
		}
		if err != nil {
			xdm.PutItems(out)
			return nil, ex.errf(n, "%v", err)
		}
		out[i] = v
	}
	return in.WithColumn(n.Res, xdm.FromItemsOwned(out)), nil
}

// typedBinOp evaluates the arithmetic and comparison kernels over flat
// columns without boxing a single Item: boolean conjunction and
// disjunction, integer×integer arithmetic, double arithmetic over numeric
// and untyped columns (doubleArith), and comparisons in the θ-join's
// comparison domains (compareBinOp). ok=false means no typed kernel
// applies and the caller should run the boxed loop. The kernels replicate
// xdm.Arith/CompareValue/CompareGeneral exactly: two integer columns
// compare as integers, div yields a double, and integer arithmetic
// reports xdm.IntArith's overflow and division-by-zero errors.
func (ex *Exec) typedBinOp(n *algebra.Node, l, r *xdm.Column) (*xdm.Column, bool, error) {
	switch n.BFn {
	case algebra.BAnd, algebra.BOr:
		lb, lok := l.Bools()
		rb, rok := r.Bools()
		if !lok || !rok {
			return nil, false, nil
		}
		out := xdm.GetInts(len(lb))
		for i := range lb {
			if i&(probeChunk-1) == 0 {
				if err := ex.CheckCancel(); err != nil {
					xdm.PutInts(out)
					return nil, true, err
				}
			}
			if n.BFn == algebra.BAnd {
				out[i] = lb[i] & rb[i]
			} else {
				out[i] = lb[i] | rb[i]
			}
		}
		return xdm.BoolColumn(out), true, nil
	case algebra.BArithAdd, algebra.BArithSub, algebra.BArithMul, algebra.BArithIDiv, algebra.BArithMod:
		li, lok := l.Ints()
		ri, rok := r.Ints()
		switch {
		case lok && rok:
			return ex.intArith(n, li, ri)
		case n.BFn == algebra.BArithIDiv:
			return nil, false, nil
		}
		return ex.doubleArith(n, l, r)
	case algebra.BArithDiv:
		return ex.doubleArith(n, l, r)
	case algebra.BCmpGen, algebra.BCmpVal:
		return ex.compareBinOp(n, l, r)
	default:
		return nil, false, nil
	}
}

// intArith is integer×integer arithmetic other than div.
func (ex *Exec) intArith(n *algebra.Node, li, ri []int64) (*xdm.Column, bool, error) {
	out := xdm.GetInts(len(li))
	op := arithOps[n.BFn]
	for i := range li {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				xdm.PutInts(out)
				return nil, true, err
			}
		}
		v, err := xdm.IntArith(li[i], ri[i], op)
		if err != nil {
			xdm.PutInts(out)
			return nil, true, ex.errf(n, "%v", err)
		}
		out[i] = v
	}
	return xdm.IntColumn(out), true, nil
}

// doubleArith computes arithmetic (but idiv) in doubles, as xdm does once
// an operand is a double or untyped, over two flat columns that render in
// the numeric domain (thetaDomain). A boxed column keeps the row loop:
// its integer cells stay integral against an integer.
func (ex *Exec) doubleArith(n *algebra.Node, l, r *xdm.Column) (*xdm.Column, bool, error) {
	for _, c := range [...]*xdm.Column{l, r} {
		if c.Kind() == xdm.ColItems || thetaDomain(thetaColumnClass(c), thetaNum) != thetaNum {
			return nil, false, nil
		}
	}
	return ex.wordBinOp(n, l, r, thetaNum)
}

// compareBinOp is the general or value comparison of two columns, row by
// row, in the domain the θ-join compares the same two columns in: both
// are classified by thetaColumnClass, thetaDomain picks the domain, and
// strSide or wordSide renders them; two integer columns compare as
// integers. A value comparison takes an untyped column as a string one
// first, as xdm.CompareValue does, so untyped against a number stays a
// type error. A mixed column, a pair of classes that is a type error and
// integers the doubles cannot decide (floatsExact) take the boxed loop.
func (ex *Exec) compareBinOp(n *algebra.Node, l, r *xdm.Column) (*xdm.Column, bool, error) {
	if l.Len() == 0 {
		return nil, false, nil // thetaColumnClass reads a boxed column's first cell
	}
	if li, ok := l.Ints(); ok {
		if ri, ok := r.Ints(); ok {
			col, err := compareKernel(ex, n.Cmp, li, ri)
			return col, true, err
		}
	}
	lc, rc := thetaColumnClass(l), thetaColumnClass(r)
	if n.BFn == algebra.BCmpVal {
		lc, rc = untypedAsString(lc), untypedAsString(rc)
	}
	switch dom := thetaDomain(lc, rc); {
	case lc == thetaMixed || rc == thetaMixed || dom == thetaNone || dom == thetaNum && !floatsExact(l, r):
		return nil, false, nil
	case dom == thetaStr:
		col, err := compareKernel(ex, n.Cmp, strSide(l).vals, strSide(r).vals)
		return col, true, err
	default:
		return ex.wordBinOp(n, l, r, dom)
	}
}

func untypedAsString(c thetaClass) thetaClass {
	if c == thetaUntyped {
		return thetaStr
	}
	return c
}

// wordBinOp renders two columns in the numeric or boolean domain
// (wordSide) and compares them, or combines them arithmetically, row by
// row. At a cell that does not cast, ok=false hands the call to the boxed
// loop, which reports xdm's error for the first failing row.
func (ex *Exec) wordBinOp(n *algebra.Node, l, r *xdm.Column, dom thetaClass) (*xdm.Column, bool, error) {
	ls, rs := wordSide(l, dom), wordSide(r, dom)
	defer xdm.PutFloats(ls.vals)
	defer xdm.PutFloats(rs.vals)
	if ls.bad != nil || rs.bad != nil {
		return nil, false, nil
	}
	lf, rf := ls.vals, rs.vals
	if n.BFn == algebra.BCmpGen || n.BFn == algebra.BCmpVal {
		col, err := compareKernel(ex, n.Cmp, lf, rf)
		return col, true, err
	}
	out := xdm.GetFloats(len(lf))
	for i := range lf {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				xdm.PutFloats(out)
				return nil, true, err
			}
		}
		a, b := lf[i], rf[i]
		switch n.BFn {
		case algebra.BArithAdd:
			out[i] = a + b
		case algebra.BArithSub:
			out[i] = a - b
		case algebra.BArithMul:
			out[i] = a * b
		case algebra.BArithDiv:
			out[i] = a / b
		default:
			out[i] = math.Mod(a, b)
		}
	}
	return xdm.DoubleColumn(out), true, nil
}

// compareKernel is the typed comparison of two string, two integer or two
// double columns into a boolean column.
func compareKernel[T cmp.Ordered](ex *Exec, op xdm.CmpOp, l, r []T) (*xdm.Column, error) {
	out := xdm.GetInts(len(l))
	for i := range l {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				xdm.PutInts(out)
				return nil, err
			}
		}
		out[i] = 0
		if compare(op, l[i], r[i]) {
			out[i] = 1
		}
	}
	return xdm.BoolColumn(out), nil
}

// compare applies op with Go's operators, which are xdm's: strings
// compare by bytes, and a NaN operand makes every relation but ne false.
func compare[T cmp.Ordered](op xdm.CmpOp, a, b T) bool {
	switch op {
	case xdm.CmpEq:
		return a == b
	case xdm.CmpNe:
		return a != b
	case xdm.CmpLt:
		return a < b
	case xdm.CmpLe:
		return a <= b
	case xdm.CmpGt:
		return a > b
	default:
		return a >= b
	}
}

// fragRun resolves the fragments behind a column of node references,
// once per run of equal fragment ids instead of once per row. Fragments
// never move within an execution's store, so the cached pointer stays
// valid while constructors append new ones.
type fragRun struct {
	store *xmltree.Store
	f     *xmltree.Fragment
	id    uint32
}

func (r *fragRun) frag(id uint32) *xmltree.Fragment {
	if r.f == nil || r.id != id {
		r.f, r.id = r.store.Frag(id), id
	}
	return r.f
}

// atomize is Store.Atomize through the cached fragment.
func (r *fragRun) atomize(it xdm.Item) xdm.Item {
	if !it.IsNode() {
		return it
	}
	return xdm.NewUntyped(r.frag(it.N.Frag).StringValue(it.N.Pre))
}

// applyTernFn evaluates ternary item functions.
func (ex *Exec) applyTernFn(n *algebra.Node, a, b, c xdm.Item) (xdm.Item, error) {
	switch n.BFn {
	case algebra.BSubstr3:
		return xdm.Substring(a.StringValue(), b, c)
	default:
		return xdm.Item{}, ex.errf(n, "unknown ternary function")
	}
}

// arithOps maps the arithmetic BinFns (the enumeration's first six) to
// their xdm operators.
var arithOps = [...]xdm.ArithOp{
	algebra.BArithAdd: xdm.OpAdd, algebra.BArithSub: xdm.OpSub,
	algebra.BArithMul: xdm.OpMul, algebra.BArithDiv: xdm.OpDiv,
	algebra.BArithIDiv: xdm.OpIDiv, algebra.BArithMod: xdm.OpMod,
}

func (ex *Exec) applyBinFn(n *algebra.Node, a, b xdm.Item) (xdm.Item, error) {
	switch n.BFn {
	case algebra.BArithAdd, algebra.BArithSub, algebra.BArithMul,
		algebra.BArithDiv, algebra.BArithIDiv, algebra.BArithMod:
		return xdm.Arith(a, b, arithOps[n.BFn])
	case algebra.BCmpGen:
		ok, err := xdm.CompareGeneral(a, b, n.Cmp)
		if err != nil {
			return xdm.Item{}, err
		}
		return xdm.NewBool(ok), nil
	case algebra.BCmpVal:
		ok, err := xdm.CompareValue(a, b, n.Cmp)
		if err != nil {
			return xdm.Item{}, err
		}
		return xdm.NewBool(ok), nil
	case algebra.BNodeBefore:
		if !a.IsNode() || !b.IsNode() {
			return xdm.Item{}, ex.errf(n, "node comparison over atomic value")
		}
		return xdm.NewBool(a.N.Before(b.N)), nil
	case algebra.BNodeIs:
		if !a.IsNode() || !b.IsNode() {
			return xdm.Item{}, ex.errf(n, "node comparison over atomic value")
		}
		return xdm.NewBool(a.N == b.N), nil
	case algebra.BAnd:
		return xdm.NewBool(a.Bool() && b.Bool()), nil
	case algebra.BOr:
		return xdm.NewBool(a.Bool() || b.Bool()), nil
	case algebra.BConcat:
		return xdm.NewString(a.StringValue() + b.StringValue()), nil
	case algebra.BContains:
		return xdm.NewBool(strings.Contains(a.StringValue(), b.StringValue())), nil
	case algebra.BStartsWith:
		return xdm.NewBool(strings.HasPrefix(a.StringValue(), b.StringValue())), nil
	case algebra.BEndsWith:
		return xdm.NewBool(strings.HasSuffix(a.StringValue(), b.StringValue())), nil
	case algebra.BSubstr2:
		return xdm.Substring(a.StringValue(), b)
	default:
		return xdm.Item{}, ex.errf(n, "unknown binary function")
	}
}

func (ex *Exec) evalMap1(n *algebra.Node, in *Table) (*Table, error) {
	arg := in.Col(n.LCol)
	if col, ok, err := ex.typedMap1(n, arg); ok {
		if err != nil {
			return nil, err
		}
		return in.WithColumn(n.Res, col), nil
	}
	rows := arg.Len()
	out := xdm.GetItems(rows)
	fr := fragRun{store: ex.store}
	for i := 0; i < rows; i++ {
		if i&(probeChunk-1) == 0 {
			if err := ex.CheckCancel(); err != nil {
				xdm.PutItems(out)
				return nil, err
			}
		}
		v, err := ex.applyUnFn(n, arg.Get(i), &fr)
		if err != nil {
			xdm.PutItems(out)
			return nil, err
		}
		out[i] = v
	}
	return in.WithColumn(n.Res, xdm.FromItemsOwned(out)), nil
}

// typedMap1 evaluates atomisation, fn:string and fn:number without
// boxing a cell, choosing the kernel once from the function and the
// input's representation: atomising an atomic typed column is the
// column itself (tables share columns through the *Column pointer); a
// node column's string values are written straight into an untyped or
// string column, or cast into a double one; fn:string of a string-class
// column is a string column. ok=false means the caller runs the boxed
// row loop.
func (ex *Exec) typedMap1(n *algebra.Node, arg *xdm.Column) (*xdm.Column, bool, error) {
	kind := arg.Kind()
	ns, nodes := arg.Nodes()
	switch {
	case n.UFn == algebra.UnAtomize && kind != xdm.ColItems && !nodes:
		return arg, true, nil
	case n.UFn == algebra.UnString && kind == xdm.ColString:
		return arg, true, nil
	case n.UFn == algebra.UnString && kind == xdm.ColUntyped:
		ss, _, _ := arg.Strings()
		return xdm.StringColumn(xdm.KString, slices.Clone(ss)), true, nil
	case !nodes:
		return nil, false, nil
	}
	fr := fragRun{store: ex.store}
	switch n.UFn {
	case algebra.UnAtomize, algebra.UnString:
		out := make([]string, len(ns))
		for i, id := range ns {
			if i&(probeChunk-1) == 0 {
				if err := ex.CheckCancel(); err != nil {
					return nil, true, err
				}
			}
			out[i] = fr.frag(id.Frag).StringValue(id.Pre)
		}
		if n.UFn == algebra.UnAtomize {
			return xdm.StringColumn(xdm.KUntyped, out), true, nil
		}
		return xdm.StringColumn(xdm.KString, out), true, nil
	case algebra.UnNumber:
		out := xdm.GetFloats(len(ns))
		for i, id := range ns {
			if i&(probeChunk-1) == 0 {
				if err := ex.CheckCancel(); err != nil {
					xdm.PutFloats(out)
					return nil, true, err
				}
			}
			f, err := xdm.ParseDouble(fr.frag(id.Frag).StringValue(id.Pre))
			if err != nil {
				f = math.NaN()
			}
			out[i] = f
		}
		return xdm.DoubleColumn(out), true, nil
	default:
		return nil, false, nil
	}
}

func (ex *Exec) applyUnFn(n *algebra.Node, it xdm.Item, fr *fragRun) (xdm.Item, error) {
	switch n.UFn {
	case algebra.UnAtomize:
		return fr.atomize(it), nil
	case algebra.UnString:
		return xdm.NewString(fr.atomize(it).StringValue()), nil
	case algebra.UnNumber:
		return xdm.NewDouble(fr.atomize(it).NumberOrNaN()), nil
	case algebra.UnStringLength:
		return xdm.NewInt(int64(len([]rune(fr.atomize(it).StringValue())))), nil
	case algebra.UnNot:
		if it.Kind != xdm.KBoolean {
			return xdm.Item{}, ex.errf(n, "not over non-boolean")
		}
		return xdm.NewBool(it.I == 0), nil
	case algebra.UnNeg:
		return xdm.Negate(it)
	case algebra.UnNameOf:
		if !it.IsNode() {
			return xdm.Item{}, ex.errf(n, "name() over atomic value")
		}
		return xdm.NewString(fr.frag(it.N.Frag).NodeName(it.N.Pre)), nil
	case algebra.UnRoot:
		if !it.IsNode() {
			return xdm.Item{}, ex.errf(n, "root() over atomic value")
		}
		return xdm.NewNode(xdm.NodeID{Frag: it.N.Frag, Pre: 0}), nil
	case algebra.UnToDouble:
		f, err := it.AsDouble()
		if err != nil {
			return xdm.Item{}, err
		}
		return xdm.NewDouble(f), nil
	case algebra.UnNormalizeSpace:
		return xdm.NewString(xdm.NormalizeSpace(fr.atomize(it).StringValue())), nil
	case algebra.UnUpperCase:
		return xdm.NewString(strings.ToUpper(fr.atomize(it).StringValue())), nil
	case algebra.UnLowerCase:
		return xdm.NewString(strings.ToLower(fr.atomize(it).StringValue())), nil
	case algebra.UnRound:
		return xdm.Round(it)
	case algebra.UnFloor:
		return xdm.Floor(it)
	case algebra.UnCeiling:
		return xdm.Ceiling(it)
	case algebra.UnAbs:
		return xdm.Abs(it)
	default:
		return xdm.Item{}, ex.errf(n, "unknown unary function")
	}
}

// --- Grouped aggregation ---

// ebvGroup is one group's effective-boolean-value state.
type ebvGroup struct {
	nodes, atomics int
	item           xdm.Item // an atomic member
}

// aggOps maps the fold aggregates to their xdm operators.
var aggOps = map[algebra.AggrFn]xdm.AggOp{
	algebra.AggrSum: xdm.AggSum, algebra.AggrAvg: xdm.AggAvg,
	algebra.AggrMax: xdm.AggMax, algebra.AggrMin: xdm.AggMin,
}

func (ex *Exec) evalAggr(n *algebra.Node, in *Table) (*Table, error) {
	rows := in.NumRows()
	var val *xdm.Column
	if n.Col != "" {
		val = in.Col(n.Col)
	}
	// One group per distinct partition key, in first-occurrence order;
	// without a partition column, every row is in group 0.
	ix := &groupIndex{}
	if n.Part != "" {
		var err error
		if ix, err = groupInts(iterInts(in.Col(n.Part)), ex.CheckCancel); err != nil {
			return nil, err
		}
	} else if rows > 0 {
		ix.groups, ix.ids = 1, xdm.GetInt32s(rows)
		clear(ix.ids)
	}
	defer ix.release()

	var res *xdm.Column
	switch n.AFn {
	case algebra.AggrCount:
		counts := xdm.GetInts(ix.groups)
		clear(counts)
		for _, g := range ix.ids {
			counts[g]++
		}
		res = xdm.IntColumn(counts)

	case algebra.AggrStrJoin:
		pos := iterInts(in.Col("pos"))
		ix.cluster()
		out := make([]string, ix.groups)
		fr := fragRun{store: ex.store}
		var parts []string
		for g := range out {
			rs := ix.rowsOf(int32(g))
			if err := sortRows(rs, pos, ex.CheckCancel); err != nil {
				return nil, err
			}
			parts = parts[:0]
			for _, r := range rs {
				parts = append(parts, fr.atomize(val.Get(int(r))).StringValue())
			}
			out[g] = strings.Join(parts, n.Name)
		}
		res = xdm.StringColumn(xdm.KString, out)

	case algebra.AggrEbv:
		groups := make([]ebvGroup, ix.groups)
		for r := 0; r < rows; r++ {
			if r&(probeChunk-1) == 0 {
				if err := ex.CheckCancel(); err != nil {
					return nil, err
				}
			}
			g := &groups[ix.ids[r]]
			if v := val.Get(r); v.IsNode() {
				g.nodes++
			} else {
				g.atomics++
				g.item = v
			}
		}
		var rb xdm.ColumnBuilder
		for _, g := range groups {
			switch {
			case g.atomics == 0:
				rb.Append(xdm.True) // non-empty group of nodes
			case g.nodes == 0 && g.atomics == 1:
				b, err := xdm.EffectiveBooleanValue([]xdm.Item{g.item})
				if err != nil {
					return nil, ex.errf(n, "%v", err)
				}
				rb.Append(xdm.NewBool(b))
			default:
				return nil, ex.errf(n, "effective boolean value of a mixed multi-item sequence")
			}
		}
		res = rb.Finish()

	default:
		op := aggOps[n.AFn]
		aggs := make([]xdm.Aggregate, ix.groups)
		for r := 0; r < rows; r++ {
			if r&(probeChunk-1) == 0 {
				if err := ex.CheckCancel(); err != nil {
					return nil, err
				}
			}
			if err := aggs[ix.ids[r]].Add(op, val.Get(r)); err != nil {
				return nil, ex.errf(n, "%v", err)
			}
		}
		var rb xdm.ColumnBuilder
		for i := range aggs {
			it, _ := aggs[i].Result(op) // a group has a member
			rb.Append(it)
		}
		res = rb.Finish()
	}

	t := NewTable(n.Schema())
	if n.Part != "" {
		t.Data[0] = xdm.IntColumn(ix.keys) // adopted: one key per group, first-occurrence order
		ix.keys = nil
		t.Data[1] = res
	} else {
		t.Data[0] = res
	}
	return t, nil
}

// --- Node construction ---

// evalElem builds one tree per loop row from the operator's template,
// writing every element, attribute and literal text node of the row
// straight into the row's fragment of one slab. Each slot is grouped by
// iter once; a row's group of a slot, in pos order, is copied in under
// the element-content rules (one enclosed expression per slot) or, in an
// attribute value, atomized and joined by spaces.
func (ex *Exec) evalElem(n *algebra.Node, ins []*Table) (*Table, error) {
	type slot struct {
		ix    *groupIndex // clustered, each group in pos order
		items *xdm.Column
	}
	var small [8]slot
	slots := small[:] // slots[0], the loop, stays empty
	if len(ins) > len(small) {
		slots = make([]slot, len(ins))
	}
	defer func() {
		for _, s := range slots[1:] {
			if s.ix != nil {
				s.ix.release()
			}
		}
	}()
	for k := 1; k < len(ins); k++ {
		ix, err := groupInts(iterInts(ins[k].Col("iter")), ex.CheckCancel)
		if err != nil {
			return nil, err
		}
		ix.cluster()
		slots[k] = slot{ix, ins[k].Col("item")}
		pos := iterInts(ins[k].Col("pos"))
		for g := range int32(ix.groups) {
			if err := sortRows(ix.rowsOf(g), pos, ex.CheckCancel); err != nil {
				return nil, err
			}
		}
	}
	loopIter := iterInts(ins[0].Col("iter"))
	fr := fragRun{store: ex.store}
	// Size the slab: every row's static nodes, a copy of each content
	// node, and at most one text node per atomic content item.
	total := 0
	for _, t := range n.Tmpl {
		switch {
		case t.Kind == algebra.TElem || t.Kind == algebra.TAttr || t.Kind == algebra.TContent && t.Slot == 0:
			total += len(loopIter)
		case t.Kind == algebra.TContent:
			items := slots[t.Slot].items
			for r := range items.Len() {
				if it := items.Get(r); it.IsNode() {
					total += 1 + int(fr.frag(it.N.Frag).Size[it.N.Pre])
				} else {
					total++
				}
			}
		}
	}
	rows := func(k int, li int64) []int32 { return slots[k].ix.rowsOf(slots[k].ix.lookupInt(li)) }
	slab := xmltree.NewSlab(len(loopIter), total)
	var content xmltree.Content
	var pieces [8]string
	val := pieces[:0] // an attribute value's pieces
	for _, li := range loopIter {
		b := slab.Elem(n.Tmpl[0].Text)
		content.Reset(ex.store, b)
		for i := 1; i < len(n.Tmpl); i++ {
			switch t := n.Tmpl[i]; t.Kind {
			case algebra.TElem:
				b.StartElem(t.Text)
			case algebra.TEnd:
				b.EndElem()
			case algebra.TAttr:
				val = val[:0]
				for ; i+1 < len(n.Tmpl) && n.Tmpl[i+1].Kind == algebra.TValue; i++ {
					v := n.Tmpl[i+1]
					if v.Slot == 0 {
						val = append(val, v.Text)
						continue
					}
					for j, r := range rows(v.Slot, li) {
						if j > 0 {
							val = append(val, " ")
						}
						val = append(val, fr.atomize(slots[v.Slot].items.Get(int(r))).StringValue())
					}
				}
				b.Attr(t.Text, strings.Join(val, ""))
			case algebra.TContent:
				if t.Slot == 0 {
					b.Text(t.Text)
					continue
				}
				for _, r := range rows(t.Slot, li) {
					if err := content.Add(slots[t.Slot].items.Get(int(r))); err != nil {
						return nil, ex.errf(n, "%v", err)
					}
				}
				content.Flush()
			}
		}
		slab.Close()
	}
	return ex.constructed(n, ins[0].Col("iter"), slab), nil
}

// constructed registers a constructor's slab and returns its (iter,
// item) table: iter aliases the input's, and row i holds the root of the
// slab's i-th fragment.
func (ex *Exec) constructed(n *algebra.Node, iter *xdm.Column, slab *xmltree.Slab) *Table {
	first := slab.AddTo(ex.store)
	outItem := xdm.GetNodes(iter.Len())
	for i := range outItem {
		outItem[i] = xdm.NodeID{Frag: first + uint32(i), Pre: 0}
	}
	t := NewTable(n.Schema())
	t.Data[0], t.Data[1] = iter, xdm.NodeColumn(outItem)
	return t
}

const maxRangeSize = 10_000_000

func (ex *Exec) evalRange(n *algebra.Node, in *Table) (*Table, error) {
	iters := iterInts(in.Col("iter"))
	los := in.Col(n.LCol)
	his := in.Col(n.RCol)
	var outIter, outPos, outItem []int64
	total := 0
	for r := range iters {
		lo, err := los.Get(r).AsInteger()
		if err != nil {
			return nil, ex.errf(n, "%v", err)
		}
		hi, err := his.Get(r).AsInteger()
		if err != nil {
			return nil, ex.errf(n, "%v", err)
		}
		if hi < lo {
			continue
		}
		if total += int(hi - lo + 1); total > maxRangeSize {
			return nil, ex.errf(n, "range result larger than %d items", maxRangeSize)
		}
		for i := lo; i <= hi; i++ {
			outIter = append(outIter, iters[r])
			outPos = append(outPos, i-lo+1)
			outItem = append(outItem, i)
		}
	}
	t := NewTable([]string{"iter", "pos", "item"})
	t.Data[0] = xdm.IntColumn(outIter)
	t.Data[1] = xdm.IntColumn(outPos)
	t.Data[2] = xdm.IntColumn(outItem)
	return t, nil
}

func (ex *Exec) evalCheckCard(n *algebra.Node, ins []*Table) (*Table, error) {
	in := ins[0]
	ix, err := groupInts(iterInts(in.Col(n.Col)), ex.CheckCancel)
	if err != nil {
		return nil, err
	}
	defer ix.release()
	counts := xdm.GetInt32s(ix.groups)
	defer xdm.PutInt32s(counts)
	clear(counts)
	for _, g := range ix.ids {
		counts[g]++
	}
	check := func(c int) error {
		if c < n.Min {
			return ex.errf(n, "sequence with %d items where at least %d required", c, n.Min)
		}
		if n.Max == 0 && c > 0 {
			// Max 0 is the error-witness pattern: any row proves a
			// dynamic error the relational mapping deferred.
			return ex.errf(n, "dynamic error witnessed (e.g. comparison of incomparable values)")
		}
		if n.Max >= 0 && c > n.Max {
			return ex.errf(n, "sequence with %d items where at most %d allowed", c, n.Max)
		}
		return nil
	}
	if len(ins) == 2 {
		for _, k := range iterInts(ins[1].Col(n.Col)) {
			c := 0
			if g := ix.lookupInt(k); g >= 0 {
				c = int(counts[g])
			}
			if err := check(c); err != nil {
				return nil, err
			}
		}
	} else {
		for _, c := range counts {
			if err := check(int(c)); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}
