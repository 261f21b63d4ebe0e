package xmltree

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/xdm"
)

// Store maps fragment IDs to fragments. An engine-level store holds the
// loaded documents; each query execution derives a private store (Derive)
// into which its constructed fragments are appended, so concurrent
// executions never contend and temporary fragments are garbage after the
// query finishes.
type Store struct {
	mu    sync.RWMutex
	frags []*Fragment
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Add registers a fragment, assigns its ID, and returns it.
func (s *Store) Add(f *Fragment) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := uint32(len(s.frags))
	f.ID = id
	s.frags = append(s.frags, f)
	return id
}

// AddAll registers frags under consecutive IDs with one lock and returns
// the first.
func (s *Store) AddAll(frags []Fragment) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := uint32(len(s.frags))
	s.frags = slices.Grow(s.frags, len(frags))
	for i := range frags {
		frags[i].ID = first + uint32(i)
		s.frags = append(s.frags, &frags[i])
	}
	return first
}

// Release forgets the fragment with the given ID: its slot reads nil from
// now on and its ID is never reused. Stores derived earlier keep their
// own reference, so executions and results already holding it are
// unaffected.
func (s *Store) Release(id uint32) {
	s.mu.Lock()
	s.frags[id] = nil
	s.mu.Unlock()
}

// Frag returns the fragment with the given ID (nil once released).
func (s *Store) Frag(id uint32) *Fragment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= len(s.frags) {
		panic(fmt.Sprintf("xmltree: unknown fragment %d", id))
	}
	return s.frags[id]
}

// Len returns the number of fragment IDs assigned, released ones included.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.frags)
}

// Derive returns a new store that shares this store's fragments (read-only)
// and owns any fragments added afterwards.
func (s *Store) Derive() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	frags := make([]*Fragment, len(s.frags))
	copy(frags, s.frags)
	return &Store{frags: frags}
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
