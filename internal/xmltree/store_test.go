package xmltree

import (
	"sync"
	"testing"
)

// TestStoreConcurrentReads: Frag reads take no lock, so readers run while
// another goroutine adds and releases fragments; every read returns the
// fragment registered under the id, or nil once it is released. The race
// detector checks that no published slice element is written.
func TestStoreConcurrentReads(t *testing.T) {
	s := NewStore()
	first := MustParseString(`<r/>`)
	s.Add(first)
	const adds = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.Len()
				if f := s.Frag(0); f != first {
					t.Errorf("fragment 0 = %p, want %p", f, first)
					return
				}
				for id := 1; id < n; id++ {
					if f := s.Frag(uint32(id)); f != nil && f.ID != uint32(id) {
						t.Errorf("fragment %d holds id %d", id, f.ID)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= adds; i++ {
		id := s.Add(MustParseString(`<a/>`))
		if id != uint32(i) {
			t.Fatalf("Add returned id %d, want %d", id, i)
		}
		if i%3 == 0 {
			s.Release(id - 1)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Len(); got != adds+1 {
		t.Errorf("Len = %d, want %d", got, adds+1)
	}
	if s.Frag(2) != nil || s.Frag(adds) == nil {
		t.Error("released fragment still readable, or kept fragment gone")
	}
	d := s.Derive()
	d.Add(MustParseString(`<b/>`))
	if s.Len() != adds+1 || d.Len() != adds+2 {
		t.Errorf("derived store shares its additions: %d, %d", s.Len(), d.Len())
	}
}
