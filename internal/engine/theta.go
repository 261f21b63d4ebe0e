package engine

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/algebra"
	"repro/internal/xdm"
)

// The θ-join kernel: the value join of two atomized operand columns under
// a general comparison, emitting only the qualifying (left, right) row
// pairs — in left-major order, right rows ascending, the order a nested
// loop over xdm.CompareGeneral would find them in — without materialising
// the product or boxing a cell.

// thetaClass is how a cell takes part in a general comparison.
type thetaClass uint8

const (
	thetaNone    thetaClass = iota // nodes, internal kinds: comparable with nothing
	thetaNum                       // xs:integer, xs:double: compare as xs:double
	thetaStr                       // xs:string
	thetaBool                      // xs:boolean
	thetaUntyped                   // xs:untypedAtomic: takes the partner's class
	thetaMixed                     // a column whose cells differ in class
)

func thetaClassOf(k xdm.Kind) thetaClass {
	switch k {
	case xdm.KInteger, xdm.KDouble:
		return thetaNum
	case xdm.KString:
		return thetaStr
	case xdm.KBoolean:
		return thetaBool
	case xdm.KUntyped:
		return thetaUntyped
	default:
		return thetaNone
	}
}

func thetaColumnClass(c *xdm.Column) thetaClass {
	switch c.Kind() {
	case xdm.ColInt, xdm.ColDouble:
		return thetaNum
	case xdm.ColString:
		return thetaStr
	case xdm.ColBool:
		return thetaBool
	case xdm.ColUntyped:
		return thetaUntyped
	case xdm.ColNode:
		return thetaNone
	}
	items, _ := c.RawItems()
	class := thetaClassOf(items[0].Kind)
	for _, it := range items[1:] {
		if thetaClassOf(it.Kind) != class {
			return thetaMixed
		}
	}
	return class
}

// thetaDomain is the class-pair matrix of xdm.CompareGeneral (its
// coerceGeneral step followed by CompareValue), in one place: the domain
// in which a cell of class a and a cell of class b compare, thetaNone when
// the pair is a type error whatever the values. An untyped cell takes the
// partner's class — by a cast in the numeric and boolean domains, where a
// cell whose cast fails is incomparable with the whole other side; as its
// string in the string domain, which is also where two untyped cells meet.
func thetaDomain(a, b thetaClass) thetaClass {
	if a == thetaUntyped {
		a = b
	}
	if b == thetaUntyped {
		b = a
	}
	switch {
	case a == thetaUntyped:
		return thetaStr
	case a == b:
		return a
	default:
		return thetaNone
	}
}

// thetaSide is one operand column rendered in a comparison domain: the
// values of its comparable cells in row order, their row numbers (nil when
// every row is comparable, so position = row), and the rows whose cast
// into the domain failed.
type thetaSide[T int64 | float64 | string] struct {
	vals []T
	rows []int32
	bad  []int32
}

// wordSide renders a column in the numeric or boolean domain into a
// pooled buffer, which the caller returns with xdm.PutFloats. Booleans
// compare as 0 < 1, which the doubles 0 and 1 reproduce; an untyped cell
// is cast from its text, by xdm.ParseDouble in the numeric domain.
func wordSide(c *xdm.Column, dom thetaClass) thetaSide[float64] {
	n := c.Len()
	s := thetaSide[float64]{vals: xdm.GetFloats(n)[:0]}
	if fs, ok := c.Floats(); ok {
		s.vals = append(s.vals, fs...)
		return s
	}
	ints, ok := c.Ints()
	if !ok {
		ints, ok = c.Bools()
	}
	if ok {
		for _, v := range ints {
			s.vals = append(s.vals, float64(v))
		}
		return s
	}
	for i := 0; i < n; i++ {
		it := c.Get(i)
		f, ok := it.F, true
		switch it.Kind {
		case xdm.KInteger, xdm.KBoolean:
			f = float64(it.I)
		case xdm.KUntyped:
			var err error
			if dom == thetaNum {
				f, err = xdm.ParseDouble(it.S)
			} else {
				it, err = xdm.CoerceUntyped(it, xdm.KBoolean)
				f = float64(it.I)
			}
			ok = err == nil
		}
		if !ok {
			if s.bad == nil { // the comparable cells so far sit at their rows
				s.rows = make([]int32, len(s.vals), n)
				for k := range s.rows {
					s.rows[k] = int32(k)
				}
			}
			s.bad = append(s.bad, int32(i))
			continue
		}
		s.vals = append(s.vals, f)
		if s.bad != nil {
			s.rows = append(s.rows, int32(i))
		}
	}
	return s
}

// floatsExact reports whether the double projection (wordSide) decides
// every pair of an integer cell of l with one of r as xdm does, which
// compares two integers exactly: it does unless both sides hold integers
// and one of them an integer beyond ±2⁵³, where doubles stop being exact.
func floatsExact(l, r *xdm.Column) bool {
	return !holdsInts(l) || !holdsInts(r) || exactIntCells(l) && exactIntCells(r)
}

func holdsInts(c *xdm.Column) bool {
	if _, ok := c.Ints(); ok {
		return true
	}
	items, _ := c.RawItems()
	return slices.ContainsFunc(items, func(it xdm.Item) bool { return it.Kind == xdm.KInteger })
}

func exactIntCells(c *xdm.Column) bool {
	if v, ok := c.Ints(); ok {
		return exactInts(v)
	}
	items, _ := c.RawItems()
	return !slices.ContainsFunc(items, func(it xdm.Item) bool {
		return it.Kind == xdm.KInteger && (it.I < -exactInt || it.I > exactInt)
	})
}

// strSide renders a column in the string domain.
func strSide(c *xdm.Column) thetaSide[string] {
	if ss, _, ok := c.Strings(); ok {
		return thetaSide[string]{vals: ss}
	}
	items, _ := c.RawItems()
	s := thetaSide[string]{vals: make([]string, len(items))}
	for i, it := range items {
		s.vals[i] = it.S
	}
	return s
}

// thetaOut accumulates a θ-join's output pairs in pooled buffers and polls
// for cancellation and the cell budget about every probeChunk units of
// kernel work, whether that work emitted pairs or rejected them.
type thetaOut struct {
	ex           *Exec
	width        int
	lperm, rperm []int32
	work         int
}

// reserve makes room for n more pairs.
func (o *thetaOut) reserve(n int) {
	o.lperm = xdm.GrowInt32s(o.lperm, len(o.lperm)+n)
	o.rperm = xdm.GrowInt32s(o.rperm, len(o.rperm)+n)
}

// closeRow pairs every right row emitted since the last call with left
// position l and accounts for work units of kernel work.
func (o *thetaOut) closeRow(l int32, work int) error {
	n := len(o.lperm)
	o.lperm = o.lperm[:len(o.rperm)]
	for k := n; k < len(o.lperm); k++ {
		o.lperm[k] = l
	}
	if o.work += work; o.work < probeChunk {
		return nil
	}
	o.work = 0
	return o.ex.checkCells(len(o.lperm), o.width)
}

func (o *thetaOut) release() {
	xdm.PutInt32s(o.lperm)
	xdm.PutInt32s(o.rperm)
}

// thetaJoin evaluates n's value join over the operand columns and returns
// the qualifying row pairs.
func (ex *Exec) thetaJoin(n *algebra.Node, lk, rk *xdm.Column, width int) (lperm, rperm []int32, err error) {
	o := &thetaOut{ex: ex, width: width}
	if lk.Len() > 0 && rk.Len() > 0 {
		match := n.Mode == algebra.JoinTheta
		lc, rc := thetaColumnClass(lk), thetaColumnClass(rk)
		li, lints := lk.Ints()
		ri, rints := rk.Ints()
		switch dom := thetaDomain(lc, rc); {
		case lints && rints:
			err = thetaTyped(o, thetaSide[int64]{vals: li}, thetaSide[int64]{vals: ri}, n.Cmp, match, intEq)
		case lc == thetaMixed || rc == thetaMixed || dom == thetaNum && !floatsExact(lk, rk):
			err = thetaPairwise(o, lk, rk, n.Cmp, match)
		case dom == thetaNone:
			if !match {
				err = thetaIncomparable(o, lk.Len(), rk.Len(), nil, nil, true)
			}
		case dom == thetaStr:
			err = thetaTyped(o, strSide(lk), strSide(rk), n.Cmp, match, strEq)
		default:
			ls, rs := wordSide(lk, dom), wordSide(rk, dom)
			err = thetaTyped(o, ls, rs, n.Cmp, match, floatEq)
			xdm.PutFloats(ls.vals)
			xdm.PutFloats(rs.vals)
		}
	}
	if err == nil {
		err = ex.checkCells(len(o.lperm), width)
	}
	if err != nil {
		o.release()
		return nil, nil, err
	}
	return o.lperm, o.rperm, nil
}

// thetaPairwise is the fallback for a column whose cells differ in class:
// the nested loop over xdm.CompareGeneral itself, row pair by row pair.
func thetaPairwise(o *thetaOut, lk, rk *xdm.Column, op xdm.CmpOp, match bool) error {
	rn := rk.Len()
	for i := 0; i < lk.Len(); i++ {
		a := lk.Get(i)
		for lo := 0; lo < rn; lo += probeChunk {
			hi := min(lo+probeChunk, rn)
			o.reserve(hi - lo)
			for j := lo; j < hi; j++ {
				if ok, err := xdm.CompareGeneral(a, rk.Get(j), op); (err == nil && ok && match) || (err != nil && !match) {
					o.rperm = append(o.rperm, int32(j))
				}
			}
			if err := o.closeRow(int32(i), hi-lo); err != nil {
				return err
			}
		}
	}
	return nil
}

// thetaIncomparable emits the pairs with a left row in lbad or a right row
// in rbad (both ascending) — every pair when all is set.
func thetaIncomparable(o *thetaOut, ln, rn int, lbad, rbad []int32, all bool) error {
	for i := 0; i < ln; i++ {
		if len(lbad) > 0 && lbad[0] == int32(i) {
			lbad = lbad[1:]
		} else if !all {
			o.reserve(len(rbad))
			o.rperm = append(o.rperm, rbad...)
			if err := o.closeRow(int32(i), len(rbad)+1); err != nil {
				return err
			}
			continue
		}
		for lo := 0; lo < rn; lo += probeChunk {
			hi := min(lo+probeChunk, rn)
			o.reserve(hi - lo)
			for j := lo; j < hi; j++ {
				o.rperm = append(o.rperm, int32(j))
			}
			if err := o.closeRow(int32(i), hi-lo); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupFloats indexes doubles under numeric equality: -0 keys as +0, and
// a NaN's key is never looked up (thetaTyped skips NaN probes).
func groupFloats(vals []float64, poll func() error) (*groupIndex, error) {
	keys := valueKeys(vals)
	defer xdm.PutInts(keys)
	return groupInts(keys, poll)
}

func (ix *groupIndex) lookupFloat(f float64) int32 { return ix.lookupInt(doubleKey(f)) }

// eqIndex is how a domain's values are indexed for =.
type eqIndex[T int64 | float64 | string] struct {
	group  func([]T, func() error) (*groupIndex, error)
	lookup func(*groupIndex, T) int32
}

var (
	intEq   = eqIndex[int64]{groupInts, (*groupIndex).lookupInt}
	floatEq = eqIndex[float64]{groupFloats, (*groupIndex).lookupFloat}
	strEq   = eqIndex[string]{
		func(keys []string, poll func() error) (*groupIndex, error) { return groupStrings(poll, keys) },
		(*groupIndex).lookupStr,
	}
)

// thetaTyped joins two sides rendered in one domain. Matching pairs:
// = probes a group index of the right values; < <= > >= binary-search the
// sorted right values and emit the qualifying suffix or prefix — sorted
// back into row order when it is short, by a flat scan of the right side
// when it is not; != is the complement of =, a flat scan. Incomparable
// pairs are those with a cell whose cast into the domain failed.
func thetaTyped[T int64 | float64 | string](o *thetaOut, l, r thetaSide[T], op xdm.CmpOp, match bool, eq eqIndex[T]) error {
	if !match {
		if l.bad == nil && r.bad == nil {
			return nil
		}
		ln, rn := len(l.vals)+len(l.bad), len(r.vals)+len(r.bad)
		return thetaIncomparable(o, ln, rn, l.bad, r.bad, false)
	}
	var err error
	switch op {
	case xdm.CmpEq:
		err = thetaEq(o, l.vals, r.vals, eq)
	case xdm.CmpNe:
		for i, v := range l.vals {
			if err = scanRight(o, int32(i), v, r.vals, op); err != nil {
				break
			}
		}
	default:
		err = thetaOrdered(o, l.vals, r.vals, op)
	}
	if err != nil {
		return err
	}
	// The kernels emitted positions among the comparable cells.
	if l.rows != nil {
		for k, p := range o.lperm {
			o.lperm[k] = l.rows[p]
		}
	}
	if r.rows != nil {
		for k, p := range o.rperm {
			o.rperm[k] = r.rows[p]
		}
	}
	return nil
}

func thetaEq[T int64 | float64 | string](o *thetaOut, l, r []T, eq eqIndex[T]) error {
	ix, err := eq.group(r, o.ex.CheckCancel)
	if err != nil {
		return err
	}
	defer ix.release()
	ix.cluster()
	o.reserve(len(l))
	for i, v := range l {
		if v != v {
			continue // NaN equals nothing
		}
		rs := ix.rowsOf(eq.lookup(ix, v))
		o.reserve(len(rs))
		o.rperm = append(o.rperm, rs...)
		if err := o.closeRow(int32(i), len(rs)+1); err != nil {
			return err
		}
	}
	return nil
}

// scanRight emits the positions j with v op r[j], ascending.
func scanRight[T int64 | float64 | string](o *thetaOut, i int32, v T, r []T, op xdm.CmpOp) error {
	for lo := 0; lo < len(r); lo += probeChunk {
		hi := min(lo+probeChunk, len(r))
		o.reserve(hi - lo)
		// Write every position and keep it only when the comparison
		// holds: the loop has no unpredictable branch. Go's operators on
		// float64 are xdm's comparison, NaN included.
		n := len(o.rperm)
		out := o.rperm[:n+hi-lo]
		switch op {
		case xdm.CmpNe:
			for j, x := range r[lo:hi] {
				if out[n] = int32(lo + j); v != x {
					n++
				}
			}
		case xdm.CmpLt:
			for j, x := range r[lo:hi] {
				if out[n] = int32(lo + j); v < x {
					n++
				}
			}
		case xdm.CmpLe:
			for j, x := range r[lo:hi] {
				if out[n] = int32(lo + j); v <= x {
					n++
				}
			}
		case xdm.CmpGt:
			for j, x := range r[lo:hi] {
				if out[n] = int32(lo + j); v > x {
					n++
				}
			}
		case xdm.CmpGe:
			for j, x := range r[lo:hi] {
				if out[n] = int32(lo + j); v >= x {
					n++
				}
			}
		}
		o.rperm = out[:n]
		if err := o.closeRow(i, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

func thetaOrdered[T int64 | float64 | string](o *thetaOut, l, r []T, op xdm.CmpOp) error {
	// doubleKey puts NaNs first; they qualify for nothing and are cut.
	keys := valueKeys(r)
	perm, _, err := sortByKeys(len(r), [][]int64{keys}, o.ex.CheckCancel)
	xdm.PutInts(keys)
	defer xdm.PutInt32s(perm)
	if err != nil {
		return err
	}
	for len(perm) > 0 && r[perm[0]] != r[perm[0]] {
		perm = perm[1:]
	}
	sorted := make([]T, len(perm))
	for k, j := range perm {
		sorted[k] = r[j]
	}
	if err := o.ex.CheckCancel(); err != nil {
		return err
	}
	for i, v := range l {
		if v != v {
			continue // NaN orders with nothing
		}
		// The qualifying right values are sorted[from:to].
		from, to := 0, len(sorted)
		switch op {
		case xdm.CmpLt:
			from = sort.Search(len(sorted), func(k int) bool { return sorted[k] > v })
		case xdm.CmpLe:
			from = sort.Search(len(sorted), func(k int) bool { return sorted[k] >= v })
		case xdm.CmpGt:
			to = sort.Search(len(sorted), func(k int) bool { return sorted[k] >= v })
		case xdm.CmpGe:
			to = sort.Search(len(sorted), func(k int) bool { return sorted[k] > v })
		}
		k := to - from
		if k*bits.Len(uint(k)) >= len(r) {
			if err := scanRight(o, int32(i), v, r, op); err != nil {
				return err
			}
			continue
		}
		o.reserve(k)
		n := len(o.rperm)
		o.rperm = append(o.rperm, perm[from:to]...)
		slices.Sort(o.rperm[n:])
		if err := o.closeRow(int32(i), k+1); err != nil {
			return err
		}
	}
	return nil
}
