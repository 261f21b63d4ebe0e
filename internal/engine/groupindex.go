package engine

import (
	"hash/maphash"
	"math/bits"

	"repro/internal/xdm"
)

// groupIndex clusters the rows of a key column by key value: every
// distinct key is a group, numbered in order of first occurrence, and the
// index answers key → group and (once clustered) group → rows. It is the
// one grouping structure under the engine's keyed kernels — join build and
// probe, grouped aggregation, element construction, cardinality checks.
//
// The layout holds no Go map and no per-key allocation: a few flat int32
// buffers from the xdm pool. The key → group table is chosen from the key
// column itself. Integer keys that are dense relative to the row count —
// which every iter/bind/src/pos column is, being 1…n ids minted by ρ or #
// — index a plain array by key-base; sparse integers and strings go
// through an open-addressed table of the same shape.
type groupIndex struct {
	groups int
	ids    []int32  // row → group
	keys   []int64  // group → key (integer keys)
	skeys  []string // group → key (string keys)

	// key → group: slots hold group+1, 0 marks a vacant slot.
	slots []int32
	dense bool
	base  int64 // dense: slot = key - base
	shift uint  // hashed: home slot = hash >> shift; len(slots) is a power of two

	// CSR clustering, filled by cluster: group g's rows are
	// rows[off[g]:off[g+1]], ascending.
	off  []int32
	rows []int32
}

// denseSlack is the widest key span, in multiples of the row count, still
// indexed by array: clearing eight vacant int32 slots per row costs less
// than hashing the row once.
const denseSlack = 8

var strSeed = maphash.MakeSeed()

// hashInt is Fibonacci hashing: the multiplier spreads consecutive ids
// over the table's high bits.
func hashInt(k int64) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// newSlots returns a zeroed open-addressing table at most half full with n
// keys, and the shift that maps a 64-bit hash to a home slot.
func newSlots(n int) ([]int32, uint) {
	lg := max(bits.Len(uint(2*n-1)), 3)
	slots := xdm.GetInt32s(1 << lg)
	clear(slots)
	return slots, uint(64 - lg)
}

// groupInts indexes an integer key column. poll runs every probeChunk
// rows — indexing a multi-million-row build side is otherwise a
// cancellation blind spot.
func groupInts(keys []int64, poll func() error) (*groupIndex, error) {
	n := len(keys)
	ix := &groupIndex{}
	if n == 0 {
		return ix, nil
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	ix.ids = xdm.GetInt32s(n)
	ix.keys = xdm.GetInts(n)[:0]
	// The unsigned difference is the true span even when hi-lo overflows.
	if span := uint64(hi) - uint64(lo); span < uint64(denseSlack*n+64) {
		ix.dense, ix.base = true, lo
		ix.slots = xdm.GetInt32s(int(span) + 1)
		clear(ix.slots)
		for r, k := range keys {
			if r&(probeChunk-1) == 0 {
				if err := poll(); err != nil {
					ix.release()
					return nil, err
				}
			}
			s := &ix.slots[k-lo]
			if *s == 0 {
				ix.keys = append(ix.keys, k)
				*s = int32(len(ix.keys))
			}
			ix.ids[r] = *s - 1
		}
		ix.groups = len(ix.keys)
		return ix, nil
	}
	ix.slots, ix.shift = newSlots(n)
	mask := uint64(len(ix.slots) - 1)
	for r, k := range keys {
		if r&(probeChunk-1) == 0 {
			if err := poll(); err != nil {
				ix.release()
				return nil, err
			}
		}
		h := hashInt(k) >> ix.shift
		for {
			g := ix.slots[h]
			if g == 0 {
				ix.keys = append(ix.keys, k)
				g = int32(len(ix.keys))
				ix.slots[h] = g
			} else if ix.keys[g-1] != k {
				h = (h + 1) & mask
				continue
			}
			ix.ids[r] = g - 1
			break
		}
	}
	ix.groups = len(ix.keys)
	return ix, nil
}

// groupStrings indexes a string key column given as consecutive parts —
// one key space over several tables' columns, rows numbered across the
// parts in order; see groupInts.
func groupStrings(poll func() error, parts ...[]string) (*groupIndex, error) {
	n := 0
	for _, keys := range parts {
		n += len(keys)
	}
	ix := &groupIndex{}
	if n == 0 {
		return ix, nil
	}
	ix.ids = xdm.GetInt32s(n)
	ix.slots, ix.shift = newSlots(n)
	mask := uint64(len(ix.slots) - 1)
	r := 0
	for _, keys := range parts {
		for _, k := range keys {
			if r&(probeChunk-1) == 0 {
				if err := poll(); err != nil {
					ix.release()
					return nil, err
				}
			}
			h := maphash.String(strSeed, k) >> ix.shift
			for {
				g := ix.slots[h]
				if g == 0 {
					ix.skeys = append(ix.skeys, k)
					g = int32(len(ix.skeys))
					ix.slots[h] = g
				} else if ix.skeys[g-1] != k {
					h = (h + 1) & mask
					continue
				}
				ix.ids[r] = g - 1
				break
			}
			r++
		}
	}
	ix.groups = len(ix.skeys)
	return ix, nil
}

// lookupInt returns the group holding integer key k, or -1.
func (ix *groupIndex) lookupInt(k int64) int32 {
	if ix.dense {
		// One unsigned compare covers both ends of the key range.
		if s := uint64(k) - uint64(ix.base); s < uint64(len(ix.slots)) {
			return ix.slots[s] - 1
		}
		return -1
	}
	if len(ix.keys) == 0 {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	for h := hashInt(k) >> ix.shift; ; h = (h + 1) & mask {
		g := ix.slots[h]
		if g == 0 || ix.keys[g-1] == k {
			return g - 1
		}
	}
}

// lookupStr returns the group holding string key k, or -1.
func (ix *groupIndex) lookupStr(k string) int32 {
	if len(ix.skeys) == 0 {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	for h := maphash.String(strSeed, k) >> ix.shift; ; h = (h + 1) & mask {
		g := ix.slots[h]
		if g == 0 || ix.skeys[g-1] == k {
			return g - 1
		}
	}
}

// cluster fills the CSR arrays by one counting pass over the row → group
// assignment.
func (ix *groupIndex) cluster() {
	ix.off = xdm.GetInt32s(ix.groups + 1)
	clear(ix.off)
	for _, g := range ix.ids {
		ix.off[g+1]++
	}
	for g := 0; g < ix.groups; g++ {
		ix.off[g+1] += ix.off[g]
	}
	ix.rows = xdm.GetInt32s(len(ix.ids))
	next := xdm.GetInt32s(ix.groups)
	copy(next, ix.off)
	for r, g := range ix.ids {
		ix.rows[next[g]] = int32(r)
		next[g]++
	}
	xdm.PutInt32s(next)
}

// rowsOf returns the rows of group g in ascending order (empty for g < 0);
// the index must be clustered.
func (ix *groupIndex) rowsOf(g int32) []int32 {
	if g < 0 {
		return nil
	}
	return ix.rows[ix.off[g]:ix.off[g+1]]
}

// release hands the index's buffers back to the pool; the index and every
// slice obtained from it are dead afterwards.
func (ix *groupIndex) release() {
	xdm.PutInt32s(ix.ids)
	xdm.PutInt32s(ix.slots)
	xdm.PutInt32s(ix.off)
	xdm.PutInt32s(ix.rows)
	xdm.PutInts(ix.keys)
	*ix = groupIndex{}
}

// --- Equi-join ---

// JoinIndex indexes the right key column of an equi-join for probing: by
// integer value when every key is an xs:integer (the common case — keys in
// compiled plans are iteration ids), by xdm.DistinctKey otherwise.
type JoinIndex struct {
	groupIndex
	// fanout is the mean number of right rows per key (at least 1): the
	// pairs one probed left row is expected to emit.
	fanout int
}

// BuildJoinIndex indexes a join's right-hand key column.
func BuildJoinIndex(rk *xdm.Column) *JoinIndex {
	ix, _ := buildJoinIndex(rk, func() error { return nil })
	return ix
}

// BuildJoinIndex is the package-level BuildJoinIndex polling for
// cancellation every probeChunk rows.
func (ex *Exec) BuildJoinIndex(rk *xdm.Column) (*JoinIndex, error) {
	return buildJoinIndex(rk, ex.CheckCancel)
}

func buildJoinIndex(rk *xdm.Column, poll func() error) (*JoinIndex, error) {
	var g *groupIndex
	var err error
	if ints, ok := rk.Ints(); ok {
		g, err = groupInts(ints, poll)
	} else if items, ok := rk.RawItems(); ok && allIntegers(items) {
		g, err = groupInts(iterInts(rk), poll)
	} else {
		keys := make([]string, rk.Len())
		for i := range keys {
			keys[i] = xdm.DistinctKey(rk.Get(i))
		}
		g, err = groupStrings(poll, keys)
	}
	if err != nil {
		return nil, err
	}
	g.cluster()
	xdm.PutInt32s(g.ids)
	g.ids = nil
	return &JoinIndex{groupIndex: *g, fanout: max(rk.Len()/max(g.groups, 1), 1)}, nil
}

// Release hands the index's buffers back to the pool; the index is dead
// afterwards.
func (ix *JoinIndex) Release() { ix.release() }

// Probe appends the matching (left, right) row pairs for left rows
// [lo, hi) to lperm/rperm and returns the extended slices, which replace
// the ones passed in: they grow through the xdm pool, starting from room
// for the pairs the index's fan-out predicts (a guess that high fan-out
// makes unsafe is capped at one pair per probed row or one poll chunk).
// Against an integer index the probe key is the item's integer payload,
// whatever the left column's type — exactly the boxed engine's behavior
// (non-integer items carry payload 0).
func (ix *JoinIndex) Probe(lk *xdm.Column, lo, hi int, lperm, rperm []int32) ([]int32, []int32) {
	want := len(lperm) + min((hi-lo)*ix.fanout, max(hi-lo, probeChunk))
	lperm, rperm = xdm.GrowInt32s(lperm, want), xdm.GrowInt32s(rperm, want)
	if ix.skeys != nil {
		for i := lo; i < hi; i++ {
			rs := ix.rowsOf(ix.lookupStr(xdm.DistinctKey(lk.Get(i))))
			lperm, rperm = appendPairs(lperm, rperm, int32(i), rs)
		}
		return lperm, rperm
	}
	ints, ok := lk.Ints()
	if !ok {
		ints, ok = lk.Bools()
	}
	switch items, boxed := lk.RawItems(); {
	case ok:
		for i := lo; i < hi; i++ {
			lperm, rperm = appendPairs(lperm, rperm, int32(i), ix.rowsOf(ix.lookupInt(ints[i])))
		}
	case boxed:
		for i := lo; i < hi; i++ {
			lperm, rperm = appendPairs(lperm, rperm, int32(i), ix.rowsOf(ix.lookupInt(items[i].I)))
		}
	default:
		// Typed double/string/node columns have integer payload 0.
		rs := ix.rowsOf(ix.lookupInt(0))
		for i := lo; i < hi; i++ {
			lperm, rperm = appendPairs(lperm, rperm, int32(i), rs)
		}
	}
	return lperm, rperm
}

// appendPairs appends the pairs (l, r) for every r in rs, growing both
// buffers through the xdm pool.
func appendPairs(lperm, rperm []int32, l int32, rs []int32) ([]int32, []int32) {
	n := len(lperm)
	if m := n + len(rs); m > cap(lperm) || m > cap(rperm) {
		lperm, rperm = xdm.GrowInt32s(lperm, m), xdm.GrowInt32s(rperm, m)
	}
	lperm, rperm = lperm[:n+len(rs)], rperm[:n+len(rs)]
	for k, r := range rs {
		lperm[n+k], rperm[n+k] = l, r
	}
	return lperm, rperm
}
