package xmltree

import (
	"slices"
	"testing"
)

// TestCopySubtreeAcrossDictionaries: copying alternately from two
// documents whose dictionaries list the same names in different orders
// keeps every name — the builder's per-source translation table is
// rebuilt at each switch — and the result survives a serialise-parse
// round trip node for node.
func TestCopySubtreeAcrossDictionaries(t *testing.T) {
	one := MustParseString(`<r><a k="1"><b/></a><c/></r>`)
	two := MustParseString(`<r><c><b k="2"/></c><a/></r>`)
	if slices.Equal(one.Names, two.Names) {
		t.Fatalf("both dictionaries read %q; the test needs two orders", one.Names)
	}
	b := NewBuilder()
	b.StartElem("out")
	for _, src := range []*Fragment{one, two, one, two} {
		for _, c := range src.Children(1) {
			b.CopySubtree(src, c)
		}
	}
	f := b.Close()
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}
	got := SerializeToString(f, 0, SerializeOptions{})
	want := `<out><a k="1"><b/></a><c/><c><b k="2"/></c><a/><a k="1"><b/></a><c/><c><b k="2"/></c><a/></out>`
	if got != want {
		t.Fatalf("copied = %s\nwant     %s", got, want)
	}
	back := MustParseString(got)
	for v := int32(0); v < int32(f.Len()); v++ {
		if f.NodeName(v) != back.NodeName(v+1) { // back has a document node in front
			t.Errorf("node %d named %q, re-parsed %q", v, f.NodeName(v), back.NodeName(v+1))
		}
	}
}

// TestSlabSharesDictionary: the fragments of one slab index one
// dictionary, the same slice, whichever names each of them uses.
func TestSlabSharesDictionary(t *testing.T) {
	src := MustParseString(`<s><b i="1"/></s>`)
	store := NewStore()
	store.Add(src)
	s := NewSlab(3, 8)
	s.Elem("e").CopySubtree(src, 2)
	s.Close()
	s.Elem("a").Attr("x", "v")
	s.Close()
	s.Elem("f").Text("t")
	s.Close()
	first := s.AddTo(store)
	e, a, f := store.Frag(first), store.Frag(first+1), store.Frag(first+2)
	if !SameDict(e.Names, a.Names) || !SameDict(a.Names, f.Names) {
		t.Fatalf("slab fragments hold dictionaries %q, %q, %q; want one", e.Names, a.Names, f.Names)
	}
	for _, c := range []struct {
		f    *Fragment
		v    int32
		want string
	}{{e, 0, "e"}, {e, 1, "b"}, {e, 2, "i"}, {a, 0, "a"}, {a, 1, "x"}, {f, 0, "f"}, {f, 1, ""}} {
		if got := c.f.NodeName(c.v); got != c.want {
			t.Errorf("node %d of fragment %d named %q, want %q", c.v, c.f.ID, got, c.want)
		}
	}
}
