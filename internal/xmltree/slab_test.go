package xmltree

import "testing"

// TestSlab: fragments built in one slab are ordinary fragments — each
// passes Validate and is the root (Pre 0, no parent, level 0) of its own
// fragment under consecutive ids — and a fragment built past the room
// the slab has left, or appended to after it closed, leaves its
// neighbours intact.
func TestSlab(t *testing.T) {
	src := MustParseString(`<s><b i="1"><c/>t</b><d/></s>`) // doc=0, s=1, b=2, @i=3, c=4, t=5, d=6
	store := NewStore()
	store.Add(src)
	s := NewSlab(4, 5+3) // room for e and three more nodes
	b := s.Elem("e")     // e and a copy of b's four nodes
	b.CopySubtree(src, 2)
	s.Close()
	b = s.Elem("f") // four nodes where three are left
	b.StartElem("x")
	b.EndElem()
	b.Text("y")
	b.CopySubtree(src, 6)
	s.Close()
	s.Elem("a").Attr("k", "v") // two nodes where three are left
	s.Close()
	b = s.Elem("g") // two nodes where one is left
	b.Text("z")
	s.Close()
	first := s.AddTo(store)
	want := []string{`<e><b i="1"><c/>t</b></e>`, `<f><x/>y<d/></f>`, `<a k="v"/>`, `<g>z</g>`}
	for i, w := range want {
		id := first + uint32(i)
		f := store.Frag(id)
		if err := Validate(f); err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if f.ID != id || f.Parent[0] != -1 || f.Level[0] != 0 {
			t.Errorf("fragment %d: id %d, root parent %d, level %d; want id %d rooted at Pre 0", i, f.ID, f.Parent[0], f.Level[0], id)
		}
		if got := SerializeToString(f, 0, SerializeOptions{}); got != w {
			t.Errorf("fragment %d = %q, want %q", i, got, w)
		}
	}
	// Grow each fragment by a node after it closed: its neighbour, not
	// yet grown, must still read as built.
	for i := 0; i+1 < len(want); i++ {
		f := store.Frag(first + uint32(i))
		f.Kind = append(f.Kind, KindText)
		f.Name = append(f.Name, 0)
		f.Value = append(f.Value, "overwrite")
		f.Size = append(f.Size, 0)
		f.Level = append(f.Level, 1)
		f.Parent = append(f.Parent, 0)
		next := store.Frag(first + uint32(i) + 1)
		if got := SerializeToString(next, 0, SerializeOptions{}); got != want[i+1] || next.Parent[0] != -1 {
			t.Fatalf("appending to fragment %d changed fragment %d to %q", i, i+1, got)
		}
	}
}
