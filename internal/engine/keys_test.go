package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// refKey is the specification of δ's, semijoin's and difference's row
// equivalence: the cells' xdm.DistinctKey strings, joined.
func refKey(cols []*xdm.Column, r int) string {
	var b strings.Builder
	for _, c := range cols {
		b.WriteString(xdm.DistinctKey(c.Get(r)))
		b.WriteByte(0)
	}
	return b.String()
}

// sameCell is bit identity: δ must keep the first row of a group as it
// is, not an equal one (5 for 5.0, one NaN payload for another).
func sameCell(a, b xdm.Item) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.N == b.N
}

// Cell pools per kind, small enough that cells collide often, and with
// every value whose DistinctKey meets another kind's: the string "n5"
// and the integer 5, "bt" and true, "N1:2" and the node (1, 2).
var (
	exactPool = []int64{0, 1, 5, -1, 7, 1 << 53, -(1 << 53)}
	widePool  = []int64{5, 1<<53 + 1, -(1<<53 + 1), 1 << 53, 1 << 62}
	floatPool = []float64{5, 0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5, 1 << 53}
	strPool   = []string{"n5", "bt", "bf", "a", "", "N1:2", "5"}
	nodePool  = []xdm.NodeID{{Frag: 1, Pre: 2}, {Frag: 1, Pre: 3}, {Frag: 2, Pre: 2}, {Frag: 0, Pre: 0}, {Frag: 9, Pre: 1}}
)

// genItems draws n cells of one item kind (or, for kind 255, of any).
func genItems(rng *rand.Rand, kind xdm.Kind, n int) []xdm.Item {
	out := make([]xdm.Item, n)
	ints := exactPool
	if rng.Intn(3) == 0 {
		ints = widePool
	}
	for i := range out {
		k := kind
		if k == 255 {
			k = []xdm.Kind{xdm.KInteger, xdm.KDouble, xdm.KBoolean, xdm.KString, xdm.KUntyped, xdm.KNode}[rng.Intn(6)]
		}
		switch k {
		case xdm.KInteger:
			out[i] = xdm.NewInt(ints[rng.Intn(len(ints))])
		case xdm.KDouble:
			out[i] = xdm.NewDouble(floatPool[rng.Intn(len(floatPool))])
		case xdm.KBoolean:
			out[i] = xdm.NewBool(rng.Intn(2) == 0)
		case xdm.KString, xdm.KUntyped:
			out[i] = xdm.Item{Kind: k, S: strPool[rng.Intn(len(strPool))]}
		case xdm.KNode:
			out[i] = xdm.NewNode(nodePool[rng.Intn(len(nodePool))])
		}
	}
	return out
}

// typedColumn stores homogeneous cells in their flat representation.
func typedColumn(kind xdm.Kind, items []xdm.Item) *xdm.Column {
	switch kind {
	case xdm.KInteger, xdm.KBoolean:
		v := make([]int64, len(items))
		for i, it := range items {
			v[i] = it.I
		}
		if kind == xdm.KBoolean {
			return xdm.BoolColumn(v)
		}
		return xdm.IntColumn(v)
	case xdm.KDouble:
		v := make([]float64, len(items))
		for i, it := range items {
			v[i] = it.F
		}
		return xdm.DoubleColumn(v)
	case xdm.KString, xdm.KUntyped:
		v := make([]string, len(items))
		for i, it := range items {
			v[i] = it.S
		}
		return xdm.StringColumn(kind, v)
	default:
		v := make([]xdm.NodeID, len(items))
		for i, it := range items {
			v[i] = it.N
		}
		return xdm.NodeColumn(v)
	}
}

// genColumn draws a column of the given item kind — typed, or boxed when
// boxed is set — or, for kind 255, a boxed column of mixed kinds.
func genColumn(rng *rand.Rand, kind xdm.Kind, boxed bool, n int) *xdm.Column {
	items := genItems(rng, kind, n)
	if boxed || kind == 255 {
		return xdm.ItemColumn(items)
	}
	return typedColumn(kind, items)
}

// checkKeyed runs δ over left and semijoin and difference of left against
// right, over key columns k0…, and compares each with refKey. left holds
// one more column, "row", numbering its rows.
func checkKeyed(t *testing.T, name string, left, right *Table) {
	t.Helper()
	keys := left.Cols[:len(left.Cols)-1]
	ab := algebra.NewBuilder()
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	lk, rk := make([]*xdm.Column, len(keys)), make([]*xdm.Column, len(keys))
	for i, c := range keys {
		lk[i], rk[i] = left.Col(c), right.Col(c)
	}
	describe := func() string {
		var b strings.Builder
		for i := range lk {
			fmt.Fprintf(&b, "\n  %s: left kind %d %v, right kind %d %v", keys[i], lk[i].Kind(), lk[i].AppendTo(nil), rk[i].Kind(), rk[i].AppendTo(nil))
		}
		return b.String()
	}

	var firsts []int
	seen := map[string]bool{}
	for r := 0; r < left.NumRows(); r++ {
		if k := refKey(lk, r); !seen[k] {
			seen[k] = true
			firsts = append(firsts, r)
		}
	}
	out, err := ex.evalDistinct(ab.Distinct(ab.EmptyLit(keys...), keys...), left)
	if err != nil {
		t.Fatalf("%s: δ: %v", name, err)
	}
	if out.NumRows() != len(firsts) {
		t.Fatalf("%s: δ kept %d rows, want %d (rows %v)%s", name, out.NumRows(), len(firsts), firsts, describe())
	}
	for i, r := range firsts {
		for c := range keys {
			if got, want := out.Data[c].Get(i), lk[c].Get(r); !sameCell(got, want) {
				t.Fatalf("%s: δ row %d column %s is %v, want row %d's %v%s", name, i, keys[c], got, r, want, describe())
			}
		}
	}

	inRight := map[string]bool{}
	for r := 0; r < right.NumRows(); r++ {
		inRight[refKey(rk, r)] = true
	}
	for _, op := range []algebra.OpKind{algebra.OpSemi, algebra.OpDiff} {
		var want []int64
		for r := 0; r < left.NumRows(); r++ {
			if inRight[refKey(lk, r)] == (op == algebra.OpSemi) {
				want = append(want, int64(r))
			}
		}
		lit := ab.EmptyLit(keys...)
		n := ab.Semi(lit, lit, keys...)
		if op == algebra.OpDiff {
			n = ab.Diff(lit, lit, keys...)
		}
		out, err := ex.evalSemiDiff(n, left, right)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, op, err)
		}
		got := iterInts(out.Col("row"))
		if !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s: %s kept rows %v, want %v%s", name, op, got, want, describe())
		}
	}
}

// withRows appends the "row" column numbering the table's rows.
func withRows(t *Table) *Table {
	rows := make([]int64, t.NumRows())
	for i := range rows {
		rows[i] = int64(i)
	}
	return t.WithColumn("row", xdm.IntColumn(rows))
}

// TestKeyedKernelsMatchDistinctKey: whichever way a column position keys
// — raw integers, node words, string group ids, packed or regrouped when
// the packing would overflow — δ, semijoin and difference group rows
// exactly as their cells' xdm.DistinctKey strings do.
func TestKeyedKernelsMatchDistinctKey(t *testing.T) {
	items := func(its ...xdm.Item) *xdm.Column { return xdm.ItemColumn(its) }
	one := func(c *xdm.Column) *Table {
		tab := NewTable([]string{"k0"})
		tab.Data[0] = c
		return tab
	}
	// Values whose raw payloads or keys collide across kinds.
	fixed := []struct {
		name        string
		left, right *xdm.Column
	}{
		{"string n5 vs integer 5", xdm.StringColumn(xdm.KString, []string{"n5", "5", "a"}), xdm.IntColumn([]int64{5})},
		{"string bt vs true", xdm.StringColumn(xdm.KString, []string{"bt", "bf"}), xdm.BoolColumn([]int64{1, 0})},
		{"boxed mix", items(xdm.NewString("n5"), xdm.NewInt(5), xdm.NewDouble(5), xdm.NewString("bt"), xdm.NewBool(true), xdm.NewUntyped("n5")),
			items(xdm.NewInt(5), xdm.NewBool(true), xdm.NewUntyped("bt"))},
		{"string vs untyped", xdm.StringColumn(xdm.KString, []string{"a", "b"}), xdm.StringColumn(xdm.KUntyped, []string{"a"})},
		{"boolean vs integer", xdm.BoolColumn([]int64{1, 0}), xdm.IntColumn([]int64{1, 0})},
		{"integer vs double", xdm.IntColumn([]int64{5, 1<<53 + 1, 3}), xdm.DoubleColumn([]float64{5, 1 << 53})},
		{"zeros and NaNs", xdm.DoubleColumn([]float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001)}),
			xdm.DoubleColumn([]float64{math.Copysign(0, -1), math.NaN()})},
		{"node vs string", xdm.NodeColumn([]xdm.NodeID{{Frag: 1, Pre: 2}}), xdm.StringColumn(xdm.KString, []string{"N1:2"})},
	}
	for _, tc := range fixed {
		checkKeyed(t, tc.name, withRows(one(tc.left)), one(tc.right))
	}

	kinds := []xdm.Kind{xdm.KInteger, xdm.KDouble, xdm.KBoolean, xdm.KString, xdm.KUntyped, xdm.KNode, 255}
	rng := rand.New(rand.NewSource(20261016))
	for trial := 0; trial < 3000; trial++ {
		width := 1 + rng.Intn(3)
		keys := []string{"k0", "k1", "k2"}[:width]
		left, right := NewTable(keys), NewTable(keys)
		ln, rn := rng.Intn(10), rng.Intn(10)
		for c := range keys {
			// Mostly one kind per position, typed or boxed on either
			// side; sometimes a cross-kind pair.
			lkind := kinds[rng.Intn(len(kinds))]
			rkind := lkind
			if rng.Intn(4) == 0 {
				rkind = kinds[rng.Intn(len(kinds))]
			}
			left.Data[c] = genColumn(rng, lkind, rng.Intn(4) == 0, ln)
			right.Data[c] = genColumn(rng, rkind, rng.Intn(4) == 0, rn)
		}
		checkKeyed(t, fmt.Sprintf("trial %d", trial), withRows(left), right)
	}
}

// TestKeyedKernelsAbortAtEveryPoll: a poll that fails anywhere in keying,
// packing, regrouping or probing aborts δ, semijoin and difference with
// that error.
func TestKeyedKernelsAbortAtEveryPoll(t *testing.T) {
	wide := func() *xdm.Column { return xdm.IntColumn([]int64{1 << 53, -(1 << 53), 3}) }
	shapes := map[string][]*xdm.Column{
		"string":                     {xdm.StringColumn(xdm.KUntyped, []string{"a", "b", "a"})},
		"integer, string":            {xdm.IntColumn([]int64{1, 2, 1}), xdm.StringColumn(xdm.KUntyped, []string{"a", "b", "a"})},
		"wide integer, wide integer": {wide(), wide()},
	}
	errProbe := errors.New("probe failed")
	for name, cols := range shapes {
		keys := []string{"k0", "k1"}[:len(cols)]
		tab := NewTable(keys)
		copy(tab.Data, cols)
		ab := algebra.NewBuilder()
		lit := ab.EmptyLit(keys...)
		for _, n := range []*algebra.Node{ab.Distinct(lit, keys...), ab.Semi(lit, lit, keys...), ab.Diff(lit, lit, keys...)} {
			for fail := 1; ; fail++ {
				polls := 0
				ex := NewExec(xmltree.NewStore(), nil, Options{StoreProbe: func() error {
					if polls++; polls == fail {
						return errProbe
					}
					return nil
				}})
				var err error
				if n.Kind == algebra.OpDistinct {
					_, err = ex.evalDistinct(n, tab)
				} else {
					_, err = ex.evalSemiDiff(n, tab, tab)
				}
				if polls < fail {
					if err != nil {
						t.Fatalf("%s %s: %v without a failed poll", name, n.Kind, err)
					}
					break
				}
				if !errors.Is(err, errProbe) {
					t.Fatalf("%s %s: poll %d failed, got error %v", name, n.Kind, fail, err)
				}
			}
		}
	}
}
