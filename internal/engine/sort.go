package engine

import (
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/xdm"
)

// --- One stable sort of row ids over order-preserving int64 keys ---

// orderKey keys a column for ρ: two rows' keys compare as their cells do
// under compareSortItems(a, b, emptyGreatest), reversed when desc, after
// xdm.PromoteSortKeys (a typed column never mixes integers and doubles). The
// keys are a pooled buffer; hand it back with xdm.PutInts.
func orderKey(c *xdm.Column, desc, emptyGreatest bool) []int64 {
	var k []int64
	switch c.Kind() {
	case xdm.ColInt, xdm.ColBool:
		v, ok := c.Ints()
		if !ok {
			v, _ = c.Bools()
		}
		k = valueKeys(v)
	case xdm.ColDouble:
		v, _ := c.Floats()
		k = valueKeys(v)
	case xdm.ColString, xdm.ColUntyped:
		v, _, _ := c.Strings()
		k = valueKeys(v)
	case xdm.ColNode:
		ns, _ := c.Nodes()
		k = xdm.GetInts(len(ns))
		for r, id := range ns {
			k[r] = nodeKey(id)
		}
	default: // boxed cells, Null markers among them, rank by compareSortItems
		items, _ := c.RawItems()
		items = xdm.PromoteSortKeys(items)
		k = xdm.GetInts(len(items))
		rankKeys(items, func(a, b xdm.Item) int { return compareSortItems(a, b, emptyGreatest) }, k)
	}
	if desc {
		for r := range k {
			k[r] = ^k[r] // reverses all of int64, so it cannot overflow
		}
	}
	return k
}

// valueKeys keys flat values into a pooled buffer: integers as
// themselves, doubles by doubleKey, strings by rank.
func valueKeys[T int64 | float64 | string](v []T) []int64 {
	k := xdm.GetInts(len(v))
	switch v := any(v).(type) {
	case []int64:
		copy(k, v)
	case []float64:
		for r, f := range v {
			k[r] = doubleKey(f)
		}
	case []string:
		rankKeys(v, strings.Compare, k)
	}
	return k
}

// doubleKey is a double's IEEE total-order bits as a signed integer, with
// every NaN first and -0 folded onto +0: cmp.Compare's order and equality.
func doubleKey(f float64) int64 {
	switch {
	case f != f:
		return math.MinInt64 // below -Inf's key
	case f == 0:
		return 0
	}
	b := int64(math.Float64bits(f))
	return b ^ (b >> 63 & math.MaxInt64) // negatives: reverse the magnitude bits
}

// nodeKey is frag<<32 | pre with the sign bit flipped, so that signed keys
// order as NodeID.Before does.
func nodeKey(id xdm.NodeID) int64 {
	return int64(uint64(id.Frag)<<32|uint64(uint32(id.Pre))) ^ math.MinInt64
}

// rankKeys sets k[r] to the rank of v[r] among v's distinct values under
// cmp, after one sort of the values.
func rankKeys[T any](v []T, cmp func(a, b T) int, k []int64) {
	sorted := slices.Clone(v)
	slices.SortFunc(sorted, cmp)
	sorted = slices.CompactFunc(sorted, func(a, b T) bool { return cmp(a, b) == 0 })
	for r, x := range v {
		i, _ := slices.BinarySearchFunc(sorted, x, cmp)
		k[r] = int64(i)
	}
}

// sortByKeys returns the row ids 0..n-1 ordered stably by keys[0], ties
// broken by keys[1] and so on, as a pooled buffer, and whether that order
// differs from the rows' own (a lexicographic scan finds when it does not).
func sortByKeys(n int, keys [][]int64, poll func() error) (perm []int32, moved bool, err error) {
	perm = xdm.GetInt32s(n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if keysSorted(n, keys) {
		return perm, false, nil
	}
	// The last key first: each stable pass keeps the order of its ties.
	for c := len(keys) - 1; c >= 0 && err == nil; c-- {
		err = sortRows(perm, keys[c], poll)
	}
	return perm, true, err
}

// keysSorted reports whether rows 0..n-1 are in sortByKeys' order.
func keysSorted(n int, keys [][]int64) bool {
rows:
	for r := 1; r < n; r++ {
		for _, k := range keys {
			if k[r-1] != k[r] {
				if k[r-1] > k[r] {
					return false
				}
				continue rows
			}
		}
	}
	return true
}

// sortRows reorders the row ids in perm stably by keys[row]. One scan
// finds input that is in order already and leaves it alone. Otherwise the
// keys, offset by their least value, are sorted by LSD radix passes over
// the bytes their span needs, or by one counting pass when the span is
// below len(perm). poll, when non-nil, runs before every pass; its error
// abandons the sort.
func sortRows(perm []int32, keys []int64, poll func() error) error {
	n := len(perm)
	sorted := true
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, r := range perm {
		x := keys[r]
		if i > 0 && x < keys[perm[i-1]] {
			sorted = false
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	if sorted {
		return nil
	}
	span := uint64(hi) - uint64(lo)
	digit := 8
	if span < uint64(n) {
		digit = bits.Len64(span) // one pass over at most 2n buckets
	}
	mask := uint64(1)<<digit - 1
	src, dst, count := xdm.GetInts(n), xdm.GetInts(n), xdm.GetInts(1<<digit)
	spare := xdm.GetInt32s(n)
	defer func() {
		xdm.PutInts(src)
		xdm.PutInts(dst)
		xdm.PutInts(count)
		xdm.PutInt32s(spare)
	}()
	for i, r := range perm {
		src[i] = int64(uint64(keys[r]) - uint64(lo))
	}
	srcP, dstP := perm, spare
	for shift := 0; shift < bits.Len64(span); shift += digit {
		if poll != nil {
			if err := poll(); err != nil {
				return err
			}
		}
		clear(count)
		for _, x := range src {
			count[uint64(x)>>shift&mask]++
		}
		var at int64
		for b, c := range count {
			count[b], at = at, at+c
		}
		for i, x := range src {
			b := uint64(x) >> shift & mask
			dst[count[b]], dstP[count[b]] = x, srcP[i]
			count[b]++
		}
		src, dst, srcP, dstP = dst, src, dstP, srcP
	}
	copy(perm, srcP) // harmless when the passes ended in perm itself
	return nil
}
