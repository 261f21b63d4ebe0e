package xdm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size-classed buffer pool for column backing slices.
//
// The executor allocates and drops column buffers at a rate that makes
// the Go allocator the bottleneck on join-heavy plans; the engine
// instead returns a column's backing slice here when the memoized
// intermediate that owns it provably dies (see engine.Exec recycling)
// and the builders draw replacement buffers from the same classes.
//
// Classes are powers of two: Put files a buffer under the floor class of
// its capacity, Get asks for the ceiling class of the requested length, so
// a pooled buffer always satisfies the request without reallocation.
// Buffers below minPooledCap are left to the allocator (size-class churn
// on tiny slices costs more than it saves), and everything is backed by
// sync.Pool so idle buffers are reclaimed under memory pressure.

// minPooledCap is the smallest capacity worth pooling.
const minPooledCap = 64

// maxClass bounds the class index (2^47 cells is far beyond any budget).
const maxClass = 48

// Pool traffic counters: a Get satisfied from a pooled buffer is a hit, a
// Get that had to allocate a poolable-size buffer is a miss (sub-minimum
// requests are neither — the pool never sees them). The counters are
// process-global atomics, always on: two uncontended atomic adds cost
// nothing next to the slice work they count, and the observability layer
// (internal/obs) reads per-run deltas from them without any toggling.
var poolHits, poolMisses atomic.Int64

// PoolStats returns the cumulative pool hit and miss counts since process
// start. Per-run figures are deltas between two calls; with concurrent
// executions the deltas attribute traffic to whichever run reads them.
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

type slicePool[T any] struct {
	classes [maxClass]sync.Pool
	// boxes recycles the *[]T headers the classes hold, so a put in
	// steady state allocates nothing.
	boxes sync.Pool
}

func (p *slicePool[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	if n >= minPooledCap {
		c := bits.Len(uint(n - 1)) // ceiling class: 2^c >= n
		if c < maxClass {
			if v := p.classes[c].Get(); v != nil {
				poolHits.Add(1)
				box := v.(*[]T)
				s := (*box)[:n]
				*box = nil
				p.boxes.Put(box)
				return s
			}
			poolMisses.Add(1)
			return make([]T, n, 1<<c)
		}
	}
	return make([]T, n)
}

func (p *slicePool[T]) put(s []T) {
	c := cap(s)
	if c < minPooledCap {
		return
	}
	cl := bits.Len(uint(c)) - 1 // floor class: 2^cl <= cap
	if cl >= maxClass {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:c]
	p.classes[cl].Put(box)
}

// grow returns s with capacity for at least n elements: a buffer that is
// too small is swapped for a pool class at least twice its size and
// recycled, so a kernel that cannot size its output up front still
// appends into pooled storage.
func (p *slicePool[T]) grow(s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	grown := p.get(max(n, 2*cap(s), minPooledCap))[:len(s)]
	copy(grown, s)
	p.put(s)
	return grown
}

var (
	intPool   slicePool[int64]
	floatPool slicePool[float64]
	nodePool  slicePool[NodeID]
	itemPool  slicePool[Item]
	int32Pool slicePool[int32]
)

// GetInts returns an int64 buffer of length n (contents undefined).
func GetInts(n int) []int64 { return intPool.get(n) }

// PutInts recycles an int64 buffer; the caller must not use s afterwards.
func PutInts(s []int64) { intPool.put(s) }

// GrowInts returns s with room for n cells, through the pool (see grow).
func GrowInts(s []int64, n int) []int64 { return intPool.grow(s, n) }

// GetFloats returns a float64 buffer of length n (contents undefined).
func GetFloats(n int) []float64 { return floatPool.get(n) }

// PutFloats recycles a float64 buffer.
func PutFloats(s []float64) { floatPool.put(s) }

// GetNodes returns a NodeID buffer of length n (contents undefined).
func GetNodes(n int) []NodeID { return nodePool.get(n) }

// PutNodes recycles a NodeID buffer.
func PutNodes(s []NodeID) { nodePool.put(s) }

// GrowNodes returns s with room for n cells, through the pool (see grow).
// Not inlined: it is the cold branch of per-node append loops, whose hot
// path must stay within the inliner's budget.
//
//go:noinline
func GrowNodes(s []NodeID, n int) []NodeID { return nodePool.grow(s, n) }

// GetItems returns an Item buffer of length n (contents undefined).
func GetItems(n int) []Item { return itemPool.get(n) }

// PutItems clears and recycles an Item buffer (cells hold strings; keeping
// them live through the pool would pin their backing arrays).
func PutItems(s []Item) {
	s = s[:cap(s)]
	clear(s)
	itemPool.put(s)
}

// GetInt32s returns an int32 buffer of length n (contents undefined); used
// for row-index permutations and keep lists.
func GetInt32s(n int) []int32 { return int32Pool.get(n) }

// PutInt32s recycles an int32 buffer.
func PutInt32s(s []int32) { int32Pool.put(s) }

// GrowInt32s returns s with room for n cells, through the pool (see grow).
func GrowInt32s(s []int32, n int) []int32 { return int32Pool.grow(s, n) }

// RecycleColumn returns c's backing buffer to the pool. The caller asserts
// that no alias of c (or of its buffer) survives — in the engine this is
// established by per-*Column reference counting, never by inspection.
// String-class buffers are not pooled: their cells pin string data and the
// clear cost outweighs the win.
func RecycleColumn(c *Column) {
	switch c.kind {
	case ColInt, ColBool:
		PutInts(c.ints)
		c.ints = nil
	case ColDouble:
		PutFloats(c.fs)
		c.fs = nil
	case ColNode:
		PutNodes(c.ns)
		c.ns = nil
	case ColItems:
		PutItems(c.items)
		c.items = nil
	}
}
