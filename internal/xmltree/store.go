package xmltree

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/xdm"
)

// Store maps fragment IDs to fragments. An engine-level store holds the
// loaded documents; each query execution derives a private store (Derive)
// into which its constructed fragments are appended, so concurrent
// executions never contend and temporary fragments are garbage after the
// query finishes.
//
// Reads take no lock: writers append under mu and publish the new slice
// header through frags, and a reader works on whichever header it loaded.
// An append writes only past the length of every published header, and
// Release writes into a copy, so no published element is ever written.
type Store struct {
	mu    sync.Mutex
	frags atomic.Pointer[[]*Fragment]
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// list returns the published fragment slice.
func (s *Store) list() []*Fragment {
	if p := s.frags.Load(); p != nil {
		return *p
	}
	return nil
}

// Add registers a fragment, assigns its ID, and returns it.
func (s *Store) Add(f *Fragment) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	frags := s.list()
	id := uint32(len(frags))
	f.ID = id
	frags = append(frags, f)
	s.frags.Store(&frags)
	return id
}

// AddAll registers frags under consecutive IDs with one lock and returns
// the first.
func (s *Store) AddAll(frags []Fragment) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.list()
	first := uint32(len(all))
	all = slices.Grow(all, len(frags))
	for i := range frags {
		frags[i].ID = first + uint32(i)
		all = append(all, &frags[i])
	}
	s.frags.Store(&all)
	return first
}

// Release forgets the fragments with the given IDs: their slots read nil
// from now on and their IDs are never reused. Stores derived earlier keep
// their own reference, so executions and results already holding them
// are unaffected.
func (s *Store) Release(ids ...uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	frags := slices.Clone(s.list())
	for _, id := range ids {
		frags[id] = nil
	}
	s.frags.Store(&frags)
}

// Frag returns the fragment with the given ID (nil once released).
func (s *Store) Frag(id uint32) *Fragment {
	frags := s.list()
	if int(id) >= len(frags) {
		panic(fmt.Sprintf("xmltree: unknown fragment %d", id))
	}
	return frags[id]
}

// Len returns the number of fragment IDs assigned, released ones included.
func (s *Store) Len() int { return len(s.list()) }

// Derive returns a new store that shares this store's fragments (read-only)
// and owns any fragments added afterwards.
func (s *Store) Derive() *Store {
	frags := slices.Clone(s.list())
	d := &Store{}
	d.frags.Store(&frags)
	return d
}

// StringValueOf resolves the XDM string value of a node reference.
func (s *Store) StringValueOf(n xdm.NodeID) string { return s.Frag(n.Frag).StringValue(n.Pre) }

// Atomize converts an item to its atomic value: nodes atomize to
// xs:untypedAtomic over their string value, atomics pass through.
func (s *Store) Atomize(it xdm.Item) xdm.Item {
	if !it.IsNode() {
		return it
	}
	return xdm.NewUntyped(s.StringValueOf(it.N))
}

// NameOf returns the node name ("" for text/document nodes).
func (s *Store) NameOf(n xdm.NodeID) string { return s.Frag(n.Frag).NodeName(n.Pre) }
