package engine

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xmltree"
)

// Cell pools for the ρ fuzzer: integers around ±2⁵³ and at the int64
// extremes, doubles with NaNs of both signs, ±0, ±Inf and subnormals,
// and strings that share prefixes.
var (
	rowNumInts    = []int64{0, 1, -1, 7, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53), -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	rowNumFloats  = []float64{math.NaN(), -math.NaN(), 0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1), 1 << 53, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e300}
	rowNumStrings = []string{"", "a", "ab", "abc", "abd", "ab\x00", "b", "A", "é", "ab c"}
)

// Sort column kinds the ρ fuzzer draws, by index.
const (
	rkInt = iota
	rkDenseInt
	rkDouble
	rkString
	rkUntyped
	rkBool
	rkNode
	rkBoxedInt
	rkMixed
	numRowNumKinds
)

// rowNumColumn builds a column of kind k whose cell i is drawn by pick(i).
func rowNumColumn(k int, n int, pick func(i int) int) *xdm.Column {
	if k == rkBoxedInt { // the int64 extremes beside Null markers, boxed
		items := make([]xdm.Item, n)
		for i := range items {
			if p := pick(i); p%5 == 0 {
				items[i] = xdm.Null
			} else {
				items[i] = xdm.NewInt(rowNumInts[p%len(rowNumInts)])
			}
		}
		return xdm.ItemColumn(items)
	}
	var b xdm.ColumnBuilder
	for i := 0; i < n; i++ {
		p := pick(i)
		switch k {
		case rkInt:
			b.Append(xdm.NewInt(rowNumInts[p%len(rowNumInts)]))
		case rkDenseInt: // a span below the row count: the counting pass
			b.Append(xdm.NewInt(int64(p%200) - 100))
		case rkDouble:
			b.Append(xdm.NewDouble(rowNumFloats[p%len(rowNumFloats)]))
		case rkString:
			b.Append(xdm.NewString(rowNumStrings[p%len(rowNumStrings)]))
		case rkUntyped:
			b.Append(xdm.NewUntyped(rowNumStrings[p%len(rowNumStrings)]))
		case rkBool:
			b.Append(xdm.NewBool(p%2 == 0))
		case rkNode:
			b.Append(xdm.NewNode(xdm.NodeID{Frag: uint32(p % 3), Pre: int32(p % 7)}))
		default:
			b.Append(rowNumMixed(p))
		}
	}
	return b.Finish()
}

// rowNumMixed draws a cell of a boxed column: the Null marker and every
// atomic class, integers beyond ±2⁵³ among them. Such a column mixes
// integers and doubles, so ρ orders it in doubles (xdm.PromoteSortKeys).
func rowNumMixed(p int) xdm.Item {
	switch p % 6 {
	case 0:
		return xdm.Null
	case 1:
		return xdm.NewInt(rowNumInts[p/6%len(rowNumInts)])
	case 2:
		return xdm.NewDouble(rowNumFloats[p/6%len(rowNumFloats)])
	case 3:
		return xdm.NewString(rowNumStrings[p/6%len(rowNumStrings)])
	case 4:
		return xdm.NewUntyped(rowNumStrings[p/6%len(rowNumStrings)])
	default:
		return xdm.NewBool(p%4 < 2)
	}
}

// FuzzRowNum checks ρ against its specification: sort.SliceStable over
// compareSortItems by (partition, criteria), each column promoted by
// xdm.PromoteSortKeys, then numbering that restarts at every partition
// change.
func FuzzRowNum(f *testing.F) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i*37 + i/7)
	}
	for k := 0; k < numRowNumKinds; k++ {
		for _, flags := range []uint8{0, 1, 2, 0x3f, 0x15, 0x2a} {
			f.Add(uint8(k), uint8(k+3), flags, []byte{5, 3, 9, 1, 200, 7, 7, 0, 64, 13})
			f.Add(uint8(k), uint8(k*5+1), flags, long)
		}
	}
	ex := NewExec(xmltree.NewStore(), nil, Options{})
	b := algebra.NewBuilder()
	f.Fuzz(func(t *testing.T, k1, k2, flags uint8, picks []byte) {
		n := min(len(picks), 400)
		pick := func(salt int) func(i int) int {
			return func(i int) int { return int(picks[(i*(salt+1)+salt)%n]) + i*salt }
		}
		in := NewTable([]string{"id", "part", "a", "b"})
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		in.Data[0] = xdm.IntColumn(ids)
		in.Data[1] = rowNumColumn(rkDenseInt, n, func(i int) int { return int(picks[(i*7+3)%max(n, 1)]) % 3 })
		in.Data[2] = rowNumColumn(int(k1)%numRowNumKinds, n, pick(0))
		in.Data[3] = rowNumColumn(int(k2)%numRowNumKinds, n, pick(2))
		specs := []algebra.SortSpec{{Col: "a", Desc: flags&4 != 0, EmptyGreatest: flags&8 != 0}}
		if flags&2 != 0 {
			specs = append(specs, algebra.SortSpec{Col: "b", Desc: flags&16 != 0, EmptyGreatest: flags&32 != 0})
		}
		part := ""
		if flags&1 != 0 {
			part = "part"
		}
		node := b.RowNum(b.EmptyLit(in.Cols...), "rank", specs, part)
		out, err := ex.evalRowNum(node, in)
		if err != nil {
			t.Fatal(err)
		}

		cells := map[string][]xdm.Item{}
		for j, name := range in.Cols {
			col := make([]xdm.Item, n)
			for i := range col {
				col[i] = in.Data[j].Get(i)
			}
			cells[name] = xdm.PromoteSortKeys(col)
		}
		cmpRows := func(x, y int) int {
			if part != "" {
				if c := compareSortItems(cells[part][x], cells[part][y], false); c != 0 {
					return c
				}
			}
			for _, s := range specs {
				c := compareSortItems(cells[s.Col][x], cells[s.Col][y], s.EmptyGreatest)
				if s.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return cmpRows(want[x], want[y]) < 0 })
		rank := int64(0)
		for i, r := range want {
			if got := out.Col("id").Get(i).I; got != int64(r) {
				t.Fatalf("%s over %v, %v, %v: row %d is input row %d, want %d", algebra.Label(node), in.Data[1], in.Data[2], in.Data[3], i, got, r)
			}
			if i == 0 || part != "" && compareSortItems(cells[part][want[i-1]], cells[part][r], false) != 0 {
				rank = 0
			}
			rank++
			if got := out.Col("rank").Get(i).I; got != rank {
				t.Fatalf("%s: row %d numbered %d, want %d", algebra.Label(node), i, got, rank)
			}
		}
	})
}

// TestRowNumAbortsAtEveryPoll: ρ polls between its radix passes, and a
// poll that fails at any of them aborts ρ with that error.
func TestRowNumAbortsAtEveryPoll(t *testing.T) {
	in := NewTable([]string{"iter", "v"})
	in.Data[0] = xdm.IntColumn([]int64{2, 1, 2, 1})
	in.Data[1] = xdm.DoubleColumn([]float64{1e300, -2.5, math.NaN(), 0})
	b := algebra.NewBuilder()
	n := b.RowNum(b.EmptyLit("iter", "v"), "r", []algebra.SortSpec{{Col: "v", Desc: true}}, "iter")
	errProbe := errors.New("probe failed")
	for fail := 1; ; fail++ {
		polls := 0
		ex := NewExec(xmltree.NewStore(), nil, Options{StoreProbe: func() error {
			if polls++; polls == fail {
				return errProbe
			}
			return nil
		}})
		out, err := ex.evalRowNum(n, in)
		if polls < fail {
			if err != nil || out.Col("v").Get(0).F != 0 || out.Col("r").Get(3).I != 2 {
				t.Fatalf("ρ = %v, %v without a failed poll; want (1, 0), (1, -2.5), (2, 1e300), (2, NaN)", out, err)
			}
			if fail < 3 {
				t.Fatalf("ρ polled %d times; want a poll per radix pass", polls)
			}
			return
		}
		if !errors.Is(err, errProbe) {
			t.Fatalf("poll %d failed, got error %v", fail, err)
		}
	}
}
