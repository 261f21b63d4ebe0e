package engine

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// The typed map and binop kernels are pinned to the boxed row kernels
// (applyUnFn, applyBinFn) they replace: every cell bit for bit, and the
// first error word for word.

// typedDoc's nodes string-value to the interesting casts: padded, empty,
// exponent, INF, negative zero, nested text, and an attribute.
const typedDoc = `<r x="NaN"><a> 12 </a><a>abc</a><a>1e3</a><a/><a>INF</a><b>1<c>2</c></b><a>-0</a></r>`

// Cell pools per column kind: NaN, ±0, padded and unparsable strings,
// integers around ±2⁵³, where their doubles stop being exact, and the
// int64 limits, where arithmetic overflows.
var (
	typedInts    = []int64{0, 1, -1, 12, 1000, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, -(1 << 53), 1<<53 - 1}
	typedFloats  = []float64{math.NaN(), 0, math.Copysign(0, -1), 12, 1e3, math.Inf(1), math.Inf(-1), 1.5, 1 << 53, 1e300}
	typedStrings = []string{"NaN", " 12 ", "12", "1e3", "INF", "-0", "", "abc", "9007199254740993", "-INF", " 1.5", "0", "inf", "1_000", "0x1p3"}
)

// Column kinds the fuzzer draws, by index.
const (
	tkInt = iota
	tkDouble
	tkUntyped
	tkString
	tkBool
	tkNode
	tkMixed
	numTypedKinds
)

// kernelColumn builds a column of kind k whose cell i is drawn by picks[i].
func kernelColumn(k int, picks []byte, nodes int32) *xdm.Column {
	n := len(picks)
	pick := func(i, m int) int { return int(picks[i]) % m }
	switch k {
	case tkInt:
		v := make([]int64, n)
		for i := range v {
			v[i] = typedInts[pick(i, len(typedInts))]
		}
		return xdm.IntColumn(v)
	case tkDouble:
		v := make([]float64, n)
		for i := range v {
			v[i] = typedFloats[pick(i, len(typedFloats))]
		}
		return xdm.DoubleColumn(v)
	case tkUntyped, tkString:
		v := make([]string, n)
		for i := range v {
			v[i] = typedStrings[pick(i, len(typedStrings))]
		}
		if k == tkUntyped {
			return xdm.StringColumn(xdm.KUntyped, v)
		}
		return xdm.StringColumn(xdm.KString, v)
	case tkBool:
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(pick(i, 2))
		}
		return xdm.BoolColumn(v)
	case tkNode:
		v := make([]xdm.NodeID, n)
		for i := range v {
			v[i] = xdm.NodeID{Pre: int32(pick(i, int(nodes)))}
		}
		return xdm.NodeColumn(v)
	default: // untyped and numeric cells in one boxed column
		v := make([]xdm.Item, n)
		for i := range v {
			switch p := pick(i, 3); p {
			case 0:
				v[i] = xdm.NewUntyped(typedStrings[pick(i, len(typedStrings))])
			case 1:
				v[i] = xdm.NewInt(typedInts[pick(i, len(typedInts))])
			default:
				v[i] = xdm.NewDouble(typedFloats[pick(i, len(typedFloats))])
			}
		}
		return xdm.ItemColumn(v)
	}
}

// typedOp is one fuzzed operator: a binary function (with its comparison
// operator) or a unary one.
type typedOp struct {
	bin   bool
	bfn   algebra.BinFn
	cmp   xdm.CmpOp
	unary algebra.UnFn
}

// typedOps lists every arithmetic operator, every comparison operator as
// general and as value comparison, and the typed unary functions.
func typedOps() []typedOp {
	var ops []typedOp
	for _, fn := range []algebra.BinFn{algebra.BArithAdd, algebra.BArithSub, algebra.BArithMul,
		algebra.BArithDiv, algebra.BArithIDiv, algebra.BArithMod} {
		ops = append(ops, typedOp{bin: true, bfn: fn})
	}
	for _, fn := range []algebra.BinFn{algebra.BCmpGen, algebra.BCmpVal} {
		for c := xdm.CmpEq; c <= xdm.CmpGe; c++ {
			ops = append(ops, typedOp{bin: true, bfn: fn, cmp: c})
		}
	}
	for _, fn := range []algebra.UnFn{algebra.UnAtomize, algebra.UnString, algebra.UnNumber} {
		ops = append(ops, typedOp{unary: fn})
	}
	return ops
}

func sameItem(a, b xdm.Item) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.N == b.N
}

// checkTyped runs op over the two columns through the operator kernel and
// through the boxed row kernel, and fails on the first difference.
func checkTyped(t *testing.T, op typedOp, l, r *xdm.Column) {
	t.Helper()
	store := xmltree.NewStore()
	store.Add(xmltree.MustParseString(typedDoc))
	ex := NewExec(store, nil, Options{})
	b := algebra.NewBuilder()
	in := NewTable([]string{"l", "r"})
	in.Data[0], in.Data[1] = l, r
	var n *algebra.Node
	var got *Table
	var gotErr error
	if op.bin {
		n = b.BinOp(b.EmptyLit("l", "r"), op.bfn, op.cmp, "res", "l", "r")
		got, gotErr = ex.evalBinOp(n, in)
	} else {
		n = b.Map1(b.EmptyLit("l", "r"), op.unary, "res", "l")
		got, gotErr = ex.evalMap1(n, in)
	}

	var want []xdm.Item
	var wantErr error
	fr := fragRun{store: store}
	for i := 0; i < l.Len(); i++ {
		var v xdm.Item
		var err error
		if op.bin {
			v, err = ex.applyBinFn(n, l.Get(i), r.Get(i))
			if err != nil {
				err = ex.Errf(n, "%v", err)
			}
		} else {
			v, err = ex.applyUnFn(n, l.Get(i), &fr)
		}
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, v)
	}

	desc := func() string { return algebra.Label(n) + " over " + l.String() + ", " + r.String() }
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error %v, boxed error %v", desc(), gotErr, wantErr)
		}
		return
	}
	res := got.Col("res")
	if res.Len() != len(want) {
		t.Fatalf("%s: %d rows, boxed %d", desc(), res.Len(), len(want))
	}
	for i, w := range want {
		if g := res.Get(i); !sameItem(g, w) {
			t.Fatalf("%s: row %d (%v, %v) = %#v, boxed %#v", desc(), i, l.Get(i), r.Get(i), g, w)
		}
	}
}

// FuzzTypedKernels: any two columns of any kinds, any arithmetic or
// comparison operator, and the typed unary functions over the left
// column — the typed kernels equal the boxed row loop exactly.
func FuzzTypedKernels(f *testing.F) {
	ops := len(typedOps())
	// Seeds: for every operator, each kind pair that has a typed kernel,
	// over cells that all cast and over cells with a failing cast late.
	idx := func(p []string, s string) byte {
		for i, v := range p {
			if v == s {
				return byte(i)
			}
		}
		panic(s)
	}
	castable := []byte{}
	for _, s := range []string{"NaN", " 12 ", "1e3", "INF", "-0", "9007199254740993", "12", "-INF", " 1.5", "0", "inf", "1_000", "0x1p3"} {
		castable = append(castable, idx(typedStrings, s))
	}
	failing := append(slices.Clone(castable[:8]), idx(typedStrings, "abc"), idx(typedStrings, ""))
	// 2⁵³ + 1, -(2⁵³ + 1) and 2⁵³ as integers, against 2⁵³ as a double
	// or "9007199254740993" as untyped text.
	wide, big := []byte{6, 7, 5, 6}, []byte{8, 8, 8, 8}
	for op := 0; op < ops; op++ {
		for _, k := range [][2]uint8{
			{tkUntyped, tkInt}, {tkInt, tkUntyped}, {tkUntyped, tkDouble}, {tkDouble, tkUntyped},
			{tkUntyped, tkUntyped}, {tkUntyped, tkString}, {tkString, tkUntyped}, {tkString, tkString},
			{tkDouble, tkInt}, {tkInt, tkInt}, {tkDouble, tkDouble}, {tkNode, tkInt}, {tkMixed, tkInt},
		} {
			f.Add(k[0], k[1], uint8(op), castable, slices.Clone(castable))
			f.Add(k[0], k[1], uint8(op), failing, castable)
			f.Add(k[1], k[0], uint8(op), castable, failing)
			f.Add(k[0], k[1], uint8(op), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
		}
		f.Add(uint8(tkInt), uint8(tkDouble), uint8(op), wide, big)
		f.Add(uint8(tkInt), uint8(tkUntyped), uint8(op), wide, big)
		// ±2⁵³ and its neighbours, and the int64 limits, against each other.
		f.Add(uint8(tkInt), uint8(tkInt), uint8(op), []byte{5, 6, 7, 8, 9, 10, 11, 8, 9, 2}, []byte{6, 5, 10, 1, 2, 7, 5, 8, 9, 9})
		f.Add(uint8(tkInt), uint8(tkMixed), uint8(op), []byte{5, 6, 7, 8, 9, 10, 11}, []byte{1, 4, 7, 10, 13, 16, 19})
		f.Add(uint8(tkNode), uint8(tkInt), uint8(op), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, make([]byte, 16))
	}
	f.Fuzz(func(t *testing.T, lk, rk, op uint8, lpicks, rpicks []byte) {
		n := min(len(lpicks), len(rpicks), 64)
		nodes := int32(xmltree.MustParseString(typedDoc).Len())
		l := kernelColumn(int(lk)%numTypedKinds, lpicks[:n], nodes)
		r := kernelColumn(int(rk)%numTypedKinds, rpicks[:n], nodes)
		checkTyped(t, typedOps()[int(op)%ops], l, r)
	})
}

// TestTypedKernelsApply: the kind pairs and functions the typed kernels
// claim take them, so FuzzTypedKernels compares typed against boxed
// rather than the boxed loop against itself.
func TestTypedKernelsApply(t *testing.T) {
	store := xmltree.NewStore()
	store.Add(xmltree.MustParseString(typedDoc))
	ex := NewExec(store, nil, Options{})
	b := algebra.NewBuilder()
	col := func(k int) *xdm.Column { return kernelColumn(k, []byte{1, 2, 3}, 1) } // " 12 ", "12", "1e3"
	for _, c := range []struct {
		fn   algebra.BinFn
		l, r int
	}{
		{algebra.BCmpGen, tkString, tkUntyped}, {algebra.BCmpVal, tkUntyped, tkUntyped},
		{algebra.BCmpGen, tkUntyped, tkInt}, {algebra.BCmpGen, tkDouble, tkUntyped},
		{algebra.BArithAdd, tkUntyped, tkInt}, {algebra.BArithMod, tkDouble, tkUntyped},
	} {
		n := b.BinOp(b.EmptyLit("l", "r"), c.fn, xdm.CmpLt, "res", "l", "r")
		if _, ok, err := ex.typedBinOp(n, col(c.l), col(c.r)); !ok || err != nil {
			t.Errorf("%s over %v × %v: typed kernel ok=%v, err %v", algebra.Label(n), col(c.l), col(c.r), ok, err)
		}
	}
	for _, fn := range []algebra.UnFn{algebra.UnAtomize, algebra.UnString, algebra.UnNumber} {
		n := b.Map1(b.EmptyLit("l"), fn, "res", "l")
		if _, ok, err := ex.typedMap1(n, kernelColumn(tkNode, []byte{0}, 1)); !ok || err != nil {
			t.Errorf("%s over nodes: typed kernel ok=%v, err %v", algebra.Label(n), ok, err)
		}
	}
}

// TestTypedKernelsEmptyBoxedColumn: an empty boxed column has no first
// cell to classify, so every operator over it and an empty column of any
// kind yields no rows, as the boxed loop does.
func TestTypedKernelsEmptyBoxedColumn(t *testing.T) {
	for _, op := range typedOps() {
		for k := 0; k < numTypedKinds; k++ {
			checkTyped(t, op, kernelColumn(tkMixed, nil, 1), kernelColumn(k, nil, 1))
			checkTyped(t, op, kernelColumn(k, nil, 1), kernelColumn(tkMixed, nil, 1))
		}
	}
}

// TestTypedIntegerExactness: the typed integer kernels raise FOAR0002 on
// overflow and compare integers exactly beyond 2⁵³, as xdm does, and the
// typed kernel, not the boxed loop, is what ran.
func TestTypedIntegerExactness(t *testing.T) {
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	b := algebra.NewBuilder()
	ints := func(v ...int64) *xdm.Column { return xdm.IntColumn(v) }
	for _, c := range []struct {
		fn   algebra.BinFn
		l, r *xdm.Column
	}{
		{algebra.BArithAdd, ints(1, math.MaxInt64), ints(1, 1)},
		{algebra.BArithSub, ints(math.MinInt64), ints(1)},
		{algebra.BArithMul, ints(math.MaxInt64), ints(2)},
		{algebra.BArithIDiv, ints(math.MinInt64), ints(-1)},
	} {
		n := b.BinOp(b.EmptyLit("l", "r"), c.fn, 0, "res", "l", "r")
		_, ok, err := ex.typedBinOp(n, c.l, c.r)
		if !ok || err == nil || !strings.Contains(err.Error(), "FOAR0002") {
			t.Errorf("%s over %v, %v: ok=%v, err %v; want FOAR0002", algebra.Label(n), c.l, c.r, ok, err)
		}
	}
	l, r := ints(1<<53+1, math.MinInt64, 7), ints(1<<53, math.MinInt64+1, 7)
	for op, want := range map[xdm.CmpOp][]int64{xdm.CmpEq: {0, 0, 1}, xdm.CmpGt: {1, 0, 0}, xdm.CmpLt: {0, 1, 0}} {
		n := b.BinOp(b.EmptyLit("l", "r"), algebra.BCmpVal, op, "res", "l", "r")
		col, ok, err := ex.typedBinOp(n, l, r)
		if got, _ := col.Bools(); !ok || err != nil || !slices.Equal(got, want) {
			t.Errorf("%s over %v, %v = %v (ok=%v, %v); want %v", algebra.Label(n), l, r, col, ok, err, want)
		}
	}
	in := b.EmptyLit("v")
	n := b.ThetaJoin(in, b.Project(in, algebra.ColPair{New: "w", Old: "v"}), "v", "w", xdm.CmpEq, algebra.JoinTheta)
	if lp, rp, err := ex.thetaJoin(n, l, r, 2); err != nil || !slices.Equal(lp, []int32{2}) || !slices.Equal(rp, []int32{2}) {
		t.Errorf("θ-join = over %v × %v: %v, %v, %v; want the one pair (2, 2)", l, r, lp, rp, err)
	}
	if k := orderKey(ints(1<<53+1, 1<<53), false, false); k[0] <= k[1] {
		t.Error("orderKey orders 2⁵³+1 and 2⁵³ as equal")
	}
	// ρ's keys order every pair of cells as compareSortItems does, both
	// ways round: ±0 tie, every NaN is least, and the int64 extremes
	// survive the descending complement.
	for _, col := range []*xdm.Column{
		ints(math.MinInt64, math.MaxInt64, 0, -1, 1<<53+1, 1<<53, math.MinInt64+1),
		xdm.DoubleColumn([]float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(-1), math.Inf(1),
			-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1 << 53}),
	} {
		for _, desc := range []bool{false, true} {
			k := orderKey(col, desc, false)
			for i := range k {
				for j := range k {
					want := compareSortItems(col.Get(i), col.Get(j), false)
					if desc {
						want = -want
					}
					if got := cmp.Compare(k[i], k[j]); got != want {
						t.Errorf("orderKey(desc=%v) orders %v against %v as %d; want %d", desc, col.Get(i), col.Get(j), got, want)
					}
				}
			}
		}
	}
}
