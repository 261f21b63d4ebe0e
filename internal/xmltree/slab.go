package xmltree

import "unsafe"

// Slab builds the fragments of one constructor evaluation — one element
// tree per loop iteration — out of one backing array per column
// type, the transient container Pathfinder builds a constructor's twigs
// into. Every constructed node is still the root (preorder rank 0) of its
// own Fragment, so the axes, Validate and the store see ordinary
// fragments; only their allocations are shared.
//
// Fragments are built one at a time. The open fragment's columns are
// windows over the slab's unused room, capped at its end, and closing
// caps them at their length; so a fragment that outgrows the slab
// reallocates, and one appended to after it closed reallocates, rather
// than overwriting a neighbour.
type Slab struct {
	kind                []NodeKind
	name                []uint32
	value               []string
	size, level, parent []int32
	frags               []Fragment
	next                int // first node not yet taken by a fragment
	b                   Builder
	stack               [16]int32  // the builder's open stack, until it nests deeper
	dict                [8]string  // the builder's dictionary, until it holds more names
	remap               [16]uint32 // the builder's CopySubtree translation, likewise
}

// NewSlab reserves room for frags fragments of nodes nodes in total.
// The four 4-byte columns and the kinds share one array, cut into capped
// quarters and a tail.
func NewSlab(frags, nodes int) *Slab {
	ints := make([]int32, 4*nodes+(nodes+3)/4)
	names := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(ints[3*nodes:]))), nodes)
	kinds := unsafe.Slice((*NodeKind)(unsafe.Pointer(unsafe.SliceData(ints[4*nodes:]))), nodes)
	s := &Slab{
		kind:   kinds[:0],
		name:   names[:0],
		value:  make([]string, 0, nodes),
		size:   ints[:0:nodes],
		level:  ints[nodes : nodes : 2*nodes],
		parent: ints[2*nodes : 2*nodes : 3*nodes],
		frags:  make([]Fragment, 0, frags),
	}
	s.b.open = s.stack[:0]
	s.b.names = s.dict[:1]
	s.b.remap = s.remap[:0]
	return s
}

// Elem opens the next fragment, an element named name, and returns the
// builder for its content; Close finishes it.
func (s *Slab) Elem(name string) *Builder {
	s.start()
	s.b.StartElem(name)
	return &s.b
}

func (s *Slab) start() {
	lo, hi := s.next, cap(s.kind)
	s.frags = append(s.frags, Fragment{})
	f := &s.frags[len(s.frags)-1]
	f.Kind = s.kind[lo:lo:hi]
	f.Name = s.name[lo:lo:hi]
	f.Value = s.value[lo:lo:hi]
	f.Size = s.size[lo:lo:hi]
	f.Level = s.level[lo:lo:hi]
	f.Parent = s.parent[lo:lo:hi]
	s.b.frag, s.b.open, s.b.lastTop = f, s.b.open[:0], -2
}

// Close finishes the fragment Elem opened.
func (s *Slab) Close() {
	f := s.b.end()
	n := f.Len()
	if s.next+n <= cap(s.kind) { // still in the slab, not reallocated
		s.next += n
	}
	f.Kind, f.Name, f.Value = f.Kind[:n:n], f.Name[:n:n], f.Value[:n:n]
	f.Size, f.Level, f.Parent = f.Size[:n:n], f.Level[:n:n], f.Parent[:n:n]
}

// AddTo registers the slab's fragments with store in the order they were
// built, under consecutive ids, and returns the first id. From here on
// every fragment holds the slab's whole dictionary, the one slice a step
// resolves its name test in once.
func (s *Slab) AddTo(store *Store) uint32 {
	for i := range s.frags {
		s.frags[i].Names = s.b.names
	}
	return store.AddAll(s.frags)
}
