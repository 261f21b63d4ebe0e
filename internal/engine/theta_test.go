package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// pairwiseTheta is the θ-join's specification: the nested loop over
// xdm.CompareGeneral, left-major, keeping the pairs that hold (match) or
// that raise (not match).
func pairwiseTheta(l, r []xdm.Item, op xdm.CmpOp, match bool) (lp, rp []int32) {
	for i, a := range l {
		for j, b := range r {
			ok, err := xdm.CompareGeneral(a, b, op)
			if (match && err == nil && ok) || (!match && err != nil) {
				lp, rp = append(lp, int32(i)), append(rp, int32(j))
			}
		}
	}
	return lp, rp
}

// thetaOperands draws one operand column per cell class the kernel
// distinguishes, plus the heterogeneous and the empty one.
func thetaOperands(rng *rand.Rand, n int) map[string][]xdm.Item {
	pick := func(mk func(int) xdm.Item) []xdm.Item {
		out := make([]xdm.Item, n)
		for i := range out {
			out[i] = mk(rng.Intn(1 << 16))
		}
		return out
	}
	numerals := []string{"1", "2.5", " 3 ", "1e2", "-0", "0", "NaN", "Inf", "-7", "3", "2.50"}
	words := []string{"abc", "", "1x", "true", "false", "0", "1", "b", " 3", "ABC"}
	doubles := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -7, 3, 2.5, 100}
	ints := []int64{-7, 0, 1, 2, 3, 3, 100, 1 << 53, 1<<53 + 1, math.MinInt64}
	classes := map[string]func(int) xdm.Item{
		"untyped-numeric": func(k int) xdm.Item { return xdm.NewUntyped(numerals[k%len(numerals)]) },
		"untyped-words":   func(k int) xdm.Item { return xdm.NewUntyped(words[k%len(words)]) },
		"string":          func(k int) xdm.Item { return xdm.NewString(words[k%len(words)]) },
		"integer":         func(k int) xdm.Item { return xdm.NewInt(ints[k%len(ints)]) },
		"double":          func(k int) xdm.Item { return xdm.NewDouble(doubles[k%len(doubles)]) },
		"boolean":         func(k int) xdm.Item { return xdm.NewBool(k%2 == 0) },
		"node":            func(k int) xdm.Item { return xdm.NewNode(xdm.NodeID{Frag: 1, Pre: int32(k % 5)}) },
	}
	out := map[string][]xdm.Item{"empty": nil}
	var names []string
	for name, mk := range classes {
		out[name] = pick(mk)
		names = append(names, name)
	}
	slices.Sort(names) // map order must not leak into the seeded draw
	// Integers and doubles are one class, in a boxed column.
	out["numeric"] = pick(func(k int) xdm.Item {
		if k%2 == 0 {
			return xdm.NewInt(ints[k%len(ints)])
		}
		return xdm.NewDouble(doubles[k%len(doubles)])
	})
	out["mixed"] = pick(func(k int) xdm.Item {
		if k%11 == 0 {
			return xdm.Null
		}
		return classes[names[k%len(names)]](k / 7)
	})
	return out
}

var thetaOps = []xdm.CmpOp{xdm.CmpEq, xdm.CmpNe, xdm.CmpLt, xdm.CmpLe, xdm.CmpGt, xdm.CmpGe}

// TestThetaJoinMatchesPairwise: for every operator, both modes and every
// pairing of operand classes — in the typed and in the boxed column
// representation — the kernel emits exactly the pairs, in exactly the
// order, of the nested xdm.CompareGeneral loop.
func TestThetaJoinMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	b := algebra.NewBuilder()
	in := b.EmptyLit("v")
	reps := map[string]func([]xdm.Item) *xdm.Column{
		"typed": func(v []xdm.Item) *xdm.Column { return xdm.FromItemsOwned(slices.Clone(v)) },
		"boxed": func(v []xdm.Item) *xdm.Column { return xdm.ItemColumn(slices.Clone(v)) },
	}
	check := func(t *testing.T, name string, l, r []xdm.Item) {
		for repName, rep := range reps {
			lk, rk := rep(l), rep(r)
			for _, op := range thetaOps {
				for _, mode := range []algebra.JoinMode{algebra.JoinTheta, algebra.JoinIncomparable} {
					n := b.ThetaJoin(in, b.Project(in, algebra.ColPair{New: "w", Old: "v"}), "v", "w", op, mode)
					lp, rp, err := ex.thetaJoin(n, lk, rk, 2)
					if err != nil {
						t.Fatalf("%s %s %s: %v", name, repName, algebra.Label(n), err)
					}
					wl, wr := pairwiseTheta(l, r, op, mode == algebra.JoinTheta)
					if !slices.Equal(lp, wl) || !slices.Equal(rp, wr) {
						t.Fatalf("%s %s %s:\n left %v\nright %v\n got %v\n     %v\nwant %v\n     %v",
							name, repName, algebra.Label(n), l, r, lp, rp, wl, wr)
					}
				}
			}
		}
	}
	for round := 0; round < 4; round++ {
		ls, rs := thetaOperands(rng, 5+3*round), thetaOperands(rng, 4+5*round)
		for ln, l := range ls {
			for rn, r := range rs {
				check(t, fmt.Sprintf("round %d %s × %s", round, ln, rn), l, r)
			}
		}
	}

	// Sizes at which the order operators take both the sorted-segment and
	// the scan path, and a right side longer than one poll chunk.
	wide := func(n int, mk func(int) xdm.Item) []xdm.Item {
		out := make([]xdm.Item, n)
		for i := range out {
			out[i] = mk(rng.Intn(4 * n))
		}
		return out
	}
	check(t, "wide integers", wide(60, func(k int) xdm.Item { return xdm.NewInt(int64(k)) }),
		wide(400, func(k int) xdm.Item { return xdm.NewInt(int64(k)) }))
	check(t, "wide untyped × double",
		wide(60, func(k int) xdm.Item { return xdm.NewUntyped(fmt.Sprint(k)) }),
		wide(400, func(k int) xdm.Item { return xdm.NewDouble(float64(k) / 2) }))
	check(t, "wide strings", wide(40, func(k int) xdm.Item { return xdm.NewString(fmt.Sprintf("k%03d", k)) }),
		wide(300, func(k int) xdm.Item { return xdm.NewUntyped(fmt.Sprintf("k%03d", k)) }))
	check(t, "right side of several chunks", wide(2, func(k int) xdm.Item { return xdm.NewInt(int64(k)) }),
		wide(probeChunk+77, func(k int) xdm.Item { return xdm.NewInt(int64(k % 9)) }))
}

// TestThetaJoinPollsAndBudget: the kernel polls in proportion to the pairs
// it compares, and charges only the pairs it emits against the cell budget.
func TestThetaJoinPollsAndBudget(t *testing.T) {
	polls := 0
	ex := NewExec(xmltree.NewStore(), nil, Options{MaxCells: 1000, StoreProbe: func() error { polls++; return nil }})
	b := algebra.NewBuilder()
	in := b.EmptyLit("v")
	rv := b.Project(in, algebra.ColPair{New: "w", Old: "v"})
	const side = 2048 // 4M pairs compared
	seq := func(from int64) *xdm.Column {
		v := make([]int64, side)
		for i := range v {
			v[i] = from + int64(i)
		}
		return xdm.IntColumn(v)
	}
	// No pair of disjoint ranges differs by less than 1: != holds for all,
	// = for none.
	if lp, _, err := ex.thetaJoin(b.ThetaJoin(in, rv, "v", "w", xdm.CmpEq, algebra.JoinTheta), seq(0), seq(side), 2); err != nil || len(lp) != 0 {
		t.Fatalf("disjoint = join: %d pairs, err %v", len(lp), err)
	}
	polls = 0
	_, _, err := ex.thetaJoin(b.ThetaJoin(in, rv, "v", "w", xdm.CmpNe, algebra.JoinTheta), seq(0), seq(side), 2)
	if err == nil {
		t.Fatalf("!= join of %d pairs stayed within a budget of 1000 cells", side*side)
	}
	if polls == 0 {
		t.Error("budget overrun found without a poll")
	}
	ex = NewExec(xmltree.NewStore(), nil, Options{StoreProbe: func() error { polls++; return nil }})
	polls = 0
	if _, _, err := ex.thetaJoin(b.ThetaJoin(in, rv, "v", "w", xdm.CmpLt, algebra.JoinTheta), seq(0), seq(side), 2); err != nil {
		t.Fatal(err)
	}
	if want := side * side / probeChunk / 2; polls < want {
		t.Errorf("< join comparing %d pairs polled %d times, want >= %d", side*side, polls, want)
	}
}

// FuzzThetaJoin: any two columns of any kinds, any comparison operator,
// both join modes — the kernel emits exactly the pairs, in exactly the
// order, of its specification pairwiseTheta.
func FuzzThetaJoin(f *testing.F) {
	for l := uint8(0); l < numTypedKinds; l++ {
		for r := uint8(0); r < numTypedKinds; r++ {
			for op := range thetaOps {
				f.Add(l, r, uint8(op), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []byte{14, 13, 11, 3, 2, 1, 0, 7})
			}
		}
	}
	// Integers around ±2⁵³ and the int64 limits (typedInts 5–11), against
	// integers, doubles (typedFloats 8 is 2⁵³) and a boxed numeric column.
	for op := range thetaOps {
		for _, r := range []uint8{tkInt, tkDouble, tkMixed} {
			f.Add(uint8(tkInt), r, uint8(op), []byte{5, 6, 7, 8, 9, 10, 11, 6}, []byte{6, 5, 11, 10, 9, 8, 7, 8})
		}
	}
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	b := algebra.NewBuilder()
	in := b.EmptyLit("v")
	right := b.Project(in, algebra.ColPair{New: "w", Old: "v"})
	f.Fuzz(func(t *testing.T, lk, rk, op uint8, lpicks, rpicks []byte) {
		l := kernelColumn(int(lk)%numTypedKinds, lpicks[:min(len(lpicks), 64)], 8)
		r := kernelColumn(int(rk)%numTypedKinds, rpicks[:min(len(rpicks), 64)], 8)
		cmp := thetaOps[int(op)%len(thetaOps)]
		for _, mode := range []algebra.JoinMode{algebra.JoinTheta, algebra.JoinIncomparable} {
			n := b.ThetaJoin(in, right, "v", "w", cmp, mode)
			lp, rp, err := ex.thetaJoin(n, l, r, 2)
			if err != nil {
				t.Fatalf("%s over %v × %v: %v", algebra.Label(n), l, r, err)
			}
			wl, wr := pairwiseTheta(l.AppendTo(nil), r.AppendTo(nil), cmp, mode == algebra.JoinTheta)
			if !slices.Equal(lp, wl) || !slices.Equal(rp, wr) {
				t.Fatalf("%s over %v × %v:\n got %v\n     %v\nwant %v\n     %v", algebra.Label(n), l, r, lp, rp, wl, wr)
			}
		}
	})
}
