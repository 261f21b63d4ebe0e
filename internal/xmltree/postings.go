package xmltree

// elemPostings lists a document's element nodes by name in CSR form:
// pre[off[id]:off[id+1]] holds the ascending preorder ranks of every
// element whose name has dictionary id id — the (name, pre) access path
// that turns a descendant::name region scan into a binary search.
type elemPostings struct {
	off []int32
	pre []int32
}

// ElemPostings returns the preorder ranks of all elements whose name has
// dictionary id id, in document order. ok is false for a fragment that
// is not document-rooted: constructed fragments live for one query and
// are scanned about once, so an index would cost more than the scans it
// saves, while a parsed or mounted document is immutable and queried
// many times. The postings are built on first use — no load path pays
// for them — and published atomically; concurrent first users may each
// build a copy, all equal.
func (f *Fragment) ElemPostings(id uint32) (pres []int32, ok bool) {
	if f.Kind[0] != KindDoc {
		return nil, false
	}
	ix := f.elems.Load()
	if ix == nil {
		ix = buildElemPostings(f)
		f.elems.Store(ix)
	}
	if int(id) >= len(f.Names) {
		return nil, true
	}
	return ix.pre[ix.off[id]:ix.off[id+1]], true
}

func buildElemPostings(f *Fragment) *elemPostings {
	next := make([]int32, len(f.Names)) // per name: first a count, then the fill cursor
	elems := int32(0)
	for v, k := range f.Kind {
		if k == KindElem {
			next[f.Name[v]]++
			elems++
		}
	}
	ix := &elemPostings{off: make([]int32, len(next)+1)}
	for id, c := range next {
		ix.off[id+1] = ix.off[id] + c
	}
	copy(next, ix.off)
	ix.pre = make([]int32, elems)
	for v, k := range f.Kind {
		if k == KindElem {
			id := f.Name[v]
			ix.pre[next[id]] = int32(v)
			next[id]++
		}
	}
	return ix
}
