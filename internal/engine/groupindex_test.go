package engine_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/xdm"
)

// mapJoin is the join index's specification for integer build keys: a Go
// map from key to the right rows holding it, probed with each left cell's
// integer payload.
func mapJoin(right []int64, probe []int64, lo, hi int) (lp, rp []int32) {
	ref := map[int64][]int32{}
	for j, k := range right {
		ref[k] = append(ref[k], int32(j))
	}
	for i := lo; i < hi; i++ {
		for _, j := range ref[probe[i]] {
			lp, rp = append(lp, int32(i)), append(rp, j)
		}
	}
	return lp, rp
}

// payloads is the integer payload of every cell, as the boxed engine
// read it: the value of integers and booleans, 0 for anything else.
func payloads(c *xdm.Column) []int64 {
	out := make([]int64, c.Len())
	for i := range out {
		if it := c.Get(i); it.Kind == xdm.KInteger || it.Kind == xdm.KBoolean {
			out[i] = it.I
		}
	}
	return out
}

func checkJoinIndex(t *testing.T, name string, right []int64, lk *xdm.Column, everyRange bool) {
	t.Helper()
	for _, rk := range []*xdm.Column{xdm.IntColumn(slices.Clone(right)), boxedInts(right)} {
		ix := engine.BuildJoinIndex(rk)
		probe := payloads(lk)
		for lo := 0; lo <= lk.Len(); lo++ {
			for hi := lo; hi <= lk.Len(); hi++ {
				if !everyRange && (lo != 0 || hi != lk.Len()) {
					continue
				}
				lp, rp := ix.Probe(lk, lo, hi, nil, nil)
				wl, wr := mapJoin(right, probe, lo, hi)
				if !slices.Equal(lp, wl) || !slices.Equal(rp, wr) {
					t.Fatalf("%s [%d,%d): right %v probe %v\n got %v\n     %v\nwant %v\n     %v", name, lo, hi, right, probe, lp, rp, wl, wr)
				}
			}
		}
		ix.Release()
	}
}

func boxedInts(v []int64) *xdm.Column {
	items := make([]xdm.Item, len(v))
	for i, k := range v {
		items[i] = xdm.NewInt(k)
	}
	return xdm.ItemColumn(items)
}

// TestJoinIndexMatchesMap: whatever layout the index picks for a key
// column — array, open addressing — it pairs rows exactly as a map does.
func TestJoinIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	draw := func(n int, mk func() int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = mk()
		}
		return out
	}
	builds := map[string][]int64{
		"empty":          nil,
		"single":         {7},
		"dense ids":      draw(40, func() int64 { return 1 + rng.Int63n(40) }),
		"dense negative": draw(40, func() int64 { return -20 - rng.Int63n(30) }),
		"sparse":         draw(40, func() int64 { return rng.Int63() }),
		"sparse signed":  draw(40, func() int64 { return int64(rng.Uint64()) }),
		"span overflow":  {math.MinInt64, math.MaxInt64, 0, -1, math.MaxInt64, 1, math.MinInt64},
		"duplicates":     draw(60, func() int64 { return rng.Int63n(3) * 1000003 }),
		"one key":        draw(30, func() int64 { return 0 }),
	}
	for name, right := range builds {
		// Probe keys: the build's own, their neighbours and the extremes.
		probe := append(slices.Clone(right), 0, 1, -1, math.MinInt64, math.MaxInt64)
		for _, k := range right {
			probe = append(probe, k+1, k-1)
		}
		rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
		probe = probe[:min(len(probe), 12)]
		checkJoinIndex(t, name+"/int probe", right, xdm.IntColumn(slices.Clone(probe)), true)
		checkJoinIndex(t, name+"/boxed probe", right, boxedInts(probe), true)

		bools := draw(9, func() int64 { return rng.Int63n(2) })
		checkJoinIndex(t, name+"/bool probe", right, xdm.BoolColumn(bools), true)
		mixed := xdm.ItemColumn([]xdm.Item{xdm.NewInt(right0(right)), xdm.NewString("s"), xdm.NewBool(true), xdm.NewDouble(2), xdm.NewInt(0)})
		checkJoinIndex(t, name+"/mixed probe", right, mixed, true)
		// Typed non-integer probe columns carry payload 0 in every cell.
		checkJoinIndex(t, name+"/double probe", right, xdm.DoubleColumn([]float64{1, 2, 0}), true)
		checkJoinIndex(t, name+"/string probe", right, xdm.StringColumn(xdm.KUntyped, []string{"1", "x"}), true)
	}

	// A build side that is not all integers keys by xdm.DistinctKey.
	rk := xdm.ItemColumn([]xdm.Item{xdm.NewString("k"), xdm.NewInt(5), xdm.NewDouble(5), xdm.NewUntyped("k"), xdm.NewBool(true)})
	lk := xdm.ItemColumn([]xdm.Item{xdm.NewDouble(5), xdm.NewString("k"), xdm.NewString("q"), xdm.NewBool(true), xdm.NewInt(1)})
	lp, rp := engine.BuildJoinIndex(rk).Probe(lk, 0, lk.Len(), nil, nil)
	if wl, wr := []int32{0, 0, 1, 1, 3}, []int32{1, 2, 0, 3, 4}; !slices.Equal(lp, wl) || !slices.Equal(rp, wr) {
		t.Errorf("value-keyed join: got %v/%v, want %v/%v", lp, rp, wl, wr)
	}
}

func right0(right []int64) int64 {
	if len(right) == 0 {
		return 3
	}
	return right[0]
}

// FuzzJoinIndex: build keys decoded from raw bytes under a spread that
// steers them dense, sparse or to the int64 extremes; any probe sub-range
// pairs rows as the map does.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1}, []byte{2, 9, 1}, uint8(0), uint8(0), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 128, 255, 255, 255, 255, 255, 255, 255, 127}, []byte{0, 255}, uint8(3), uint8(0), uint8(2))
	f.Add([]byte{5, 200, 5, 7, 200, 200}, []byte{200, 5, 6}, uint8(1), uint8(1), uint8(3))
	f.Add([]byte{}, []byte{1}, uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, build, probe []byte, spread, lo, hi uint8) {
		decode := func(raw []byte) []int64 {
			var out []int64
			switch spread % 4 {
			case 0: // dense: one byte per key
				for _, b := range raw {
					out = append(out, int64(b)-100)
				}
			case 1: // sparse: bytes scattered over the key space
				for _, b := range raw {
					out = append(out, int64(b)*0x0101010101010101)
				}
			case 2: // a few keys near both extremes
				for _, b := range raw {
					out = append(out, math.MinInt64+int64(b%4), math.MaxInt64-int64(b%3))
				}
			default: // raw 64-bit keys
				for ; len(raw) >= 8; raw = raw[8:] {
					out = append(out, int64(binary.LittleEndian.Uint64(raw)))
				}
			}
			return out
		}
		right, left := decode(build), decode(probe)
		if len(left) == 0 {
			left = []int64{0}
		}
		a, b := int(lo)%(len(left)+1), int(hi)%(len(left)+1)
		a, b = min(a, b), max(a, b)
		ix := engine.BuildJoinIndex(xdm.IntColumn(slices.Clone(right)))
		lp, rp := ix.Probe(xdm.IntColumn(slices.Clone(left)), a, b, nil, nil)
		wl, wr := mapJoin(right, left, a, b)
		if !slices.Equal(lp, wl) || !slices.Equal(rp, wr) {
			t.Fatalf("right %v probe %v [%d,%d):\n got %v\n     %v\nwant %v\n     %v", right, left, a, b, lp, rp, wl, wr)
		}
	})
}
