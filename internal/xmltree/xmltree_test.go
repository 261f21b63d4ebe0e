package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xdm"
)

// paperFragment is the tree of Figure 1/5: <a><b><c/><d/></b><c/></a>.
const paperFragment = `<a><b><c/><d/></b><c/></a>`

func TestFigure5Encoding(t *testing.T) {
	f := MustParseString(paperFragment)
	// Preorder: 0 doc, 1 a, 2 b, 3 c1, 4 d, 5 c2.
	wantNames := []string{"", "a", "b", "c", "d", "c"}
	wantLevels := []int32{0, 1, 2, 3, 3, 2}
	wantSizes := []int32{5, 4, 2, 0, 0, 0}
	if f.Len() != 6 {
		t.Fatalf("got %d nodes, want 6", f.Len())
	}
	for i := int32(0); i < 6; i++ {
		if f.NodeName(i) != wantNames[i] {
			t.Errorf("node %d name %q, want %q", i, f.NodeName(i), wantNames[i])
		}
		if f.Level[i] != wantLevels[i] {
			t.Errorf("node %d level %d, want %d", i, f.Level[i], wantLevels[i])
		}
		if f.Size[i] != wantSizes[i] {
			t.Errorf("node %d size %d, want %d", i, f.Size[i], wantSizes[i])
		}
	}
	// b (pre 2) precedes d (pre 4) in document order, per the paper.
	if !(2 < 4) || !f.InSubtree(2, 4) || f.InSubtree(2, 5) {
		t.Error("subtree containment wrong")
	}
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenAttributesDescendants(t *testing.T) {
	f := MustParseString(`<r a="1" b="2"><x><y/>t</x><z/></r>`)
	// pre: 0 doc, 1 r, 2 @a, 3 @b, 4 x, 5 y, 6 text, 7 z
	r := int32(1)
	if got := f.Children(r); len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Errorf("Children(r) = %v", got)
	}
	if got := f.Attributes(r); len(got) != 2 || f.NodeName(got[0]) != "a" || f.NodeName(got[1]) != "b" {
		t.Errorf("Attributes(r) = %v", got)
	}
	if got := f.Descendants(r); len(got) != 4 { // x, y, text, z (attrs excluded)
		t.Errorf("Descendants(r) = %v", got)
	}
	if got := f.Children(4); len(got) != 2 || f.NodeName(got[0]) != "y" || f.Kind[got[1]] != KindText {
		t.Errorf("Children(x) = %v", got)
	}
}

func TestStringValue(t *testing.T) {
	f := MustParseString(`<r a="v">one<x>two</x>three</r>`)
	if got := f.StringValue(1); got != "onetwothree" {
		t.Errorf("StringValue(r) = %q", got)
	}
	if got := f.StringValue(2); got != "v" {
		t.Errorf("StringValue(@a) = %q", got)
	}
	if got := f.StringValue(0); got != "onetwothree" {
		t.Errorf("StringValue(doc) = %q", got)
	}
}

func TestTextMerging(t *testing.T) {
	// Entities split CharData tokens; they must merge to one text node.
	f := MustParseString(`<r>a&amp;b</r>`)
	if n := f.ComputeStats().Texts; n != 1 {
		t.Errorf("got %d text nodes, want 1", n)
	}
	if got := f.StringValue(1); got != "a&b" {
		t.Errorf("StringValue = %q", got)
	}
}

func TestWhitespaceStripping(t *testing.T) {
	doc := "<r>\n  <x>keep me</x>\n</r>"
	f := MustParseString(doc)
	if n := f.ComputeStats().Texts; n != 1 {
		t.Errorf("stripped parse: %d text nodes, want 1", n)
	}
	kept, err := ParseString(doc, "t", ParseOptions{KeepWhitespaceText: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := kept.ComputeStats().Texts; n != 3 {
		t.Errorf("keeping parse: %d text nodes, want 3", n)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString(`<a><b></a>`, "bad", ParseOptions{}); err == nil {
		t.Error("expected error for mismatched tags")
	}
	if _, err := ParseString(``, "empty", ParseOptions{}); err == nil {
		t.Error("expected error for empty document")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		`<a><b><c/><d/></b><c/></a>`,
		`<r a="1" b="x&amp;y"><t>text &lt;here&gt;</t><e/></r>`,
		`<m>mixed <b>bold</b> tail</m>`,
	}
	for _, d := range docs {
		f := MustParseString(d)
		out := SerializeToString(f, 0, SerializeOptions{})
		if out != d {
			t.Errorf("round trip: got %q, want %q", out, d)
		}
		f2 := MustParseString(out)
		if SerializeToString(f2, 0, SerializeOptions{}) != out {
			t.Errorf("second round trip differs for %q", d)
		}
	}
}

func TestSerializeIndent(t *testing.T) {
	f := MustParseString(`<a><b><c/></b></a>`)
	got := SerializeToString(f, 1, SerializeOptions{Indent: "  "})
	want := "<a>\n  <b>\n    <c/>\n  </b>\n</a>"
	if got != want {
		t.Errorf("indent serialize:\n%s\nwant:\n%s", got, want)
	}
}

// TestAllocSerializeItems pins the serializer: a result of ~1000 nodes
// (elements, attributes needing escapes, text) plus atomics renders into
// one builder sized up front — no allocation per node or per item.
func TestAllocSerializeItems(t *testing.T) {
	b := NewBuilder()
	b.StartElem("r")
	for i := 0; i < 250; i++ {
		b.StartElem("item")
		b.Attr("id", `a"b`)
		b.StartElem("name")
		b.Text("x < y")
		b.EndElem()
		b.EndElem()
	}
	f := b.Close()
	store := NewStore()
	id := store.Add(f)
	items := []xdm.Item{{Kind: xdm.KString, S: "one"}, {Kind: xdm.KString, S: "two"}}
	for pre := int32(1); pre < int32(f.Len()); pre += f.Size[pre] + 1 {
		items = append(items, xdm.Item{Kind: xdm.KNode, N: xdm.NodeID{Frag: id, Pre: pre}})
	}
	var out string
	avg := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = SerializeItems(store, items); err != nil {
			t.Fatal(err)
		}
	})
	if want := `one two<item id="a&quot;b"><name>x &lt; y</name></item>`; out[:len(want)] != want {
		t.Fatalf("serialized %q…, want %q…", out[:len(want)], want)
	}
	if avg > 4 {
		t.Errorf("SerializeItems over %d nodes allocates %.1f times, want <= 4", f.Len(), avg)
	}
	t.Logf("%.1f allocs for %d nodes, %d bytes", avg, f.Len(), len(out))
}

func TestBuilderCopySubtree(t *testing.T) {
	src := MustParseString(`<s><b i="1"><c/></b><d/></s>`)
	b := NewBuilder()
	b.StartElem("e")
	// <e>{ d, b }</e> — Expression (3) of the paper: sequence order
	// establishes document order in the new fragment.
	dPre := int32(5) // doc=0, s=1, b=2, @i=3, c=4, d=5
	bPre := int32(2)
	b.CopySubtree(src, dPre)
	b.CopySubtree(src, bPre)
	f := b.Close()
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}
	got := SerializeToString(f, 0, SerializeOptions{})
	want := `<e><d/><b i="1"><c/></b></e>`
	if got != want {
		t.Errorf("constructed fragment = %q, want %q", got, want)
	}
	// In the new fragment, d now precedes b in document order.
	var dNew, bNew int32 = -1, -1
	for i := int32(0); i < int32(f.Len()); i++ {
		switch f.NodeName(i) {
		case "d":
			dNew = int32(i)
		case "b":
			bNew = int32(i)
		}
	}
	if !(dNew < bNew) {
		t.Errorf("document order not established from sequence order: d=%d b=%d", dNew, bNew)
	}
}

func TestBuilderPanics(t *testing.T) {
	assertPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanic("attr without element", func() { NewBuilder().Attr("a", "1") })
	assertPanic("attr after content", func() {
		b := NewBuilder()
		b.StartElem("e")
		b.Text("x")
		b.Attr("a", "1")
	})
	assertPanic("end without start", func() { NewBuilder().EndElem() })
}

func TestStoreDerive(t *testing.T) {
	s := NewStore()
	f1 := MustParseString(`<a/>`)
	id1 := s.Add(f1)
	d := s.Derive()
	f2 := MustParseString(`<b/>`)
	id2 := d.Add(f2)
	if id1 != 0 || id2 != 1 {
		t.Fatalf("ids = %d, %d", id1, id2)
	}
	if s.Len() != 1 || d.Len() != 2 {
		t.Errorf("lens = %d, %d", s.Len(), d.Len())
	}
	if d.Frag(0) != f1 {
		t.Error("derived store lost shared fragment")
	}
}

// randomXML builds a random small document for property tests.
func randomXML(r *rand.Rand, depth int) string {
	var sb strings.Builder
	names := []string{"a", "b", "c", "d"}
	var gen func(d int)
	gen = func(d int) {
		name := names[r.Intn(len(names))]
		sb.WriteString("<" + name)
		if r.Intn(3) == 0 {
			sb.WriteString(` k="` + names[r.Intn(len(names))] + `"`)
		}
		sb.WriteString(">")
		n := r.Intn(4)
		for i := 0; i < n && d < depth; i++ {
			if r.Intn(3) == 0 {
				sb.WriteString("t" + names[r.Intn(len(names))])
			} else {
				gen(d + 1)
			}
		}
		sb.WriteString("</" + name + ">")
	}
	gen(0)
	return sb.String()
}

func TestPropertyParseSerializeParse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomXML(r, 4)
		frag, err := ParseString(doc, "p", ParseOptions{})
		if err != nil {
			return false
		}
		if Validate(frag) != nil {
			return false
		}
		out := SerializeToString(frag, 0, SerializeOptions{})
		frag2, err := ParseString(out, "p2", ParseOptions{})
		if err != nil {
			return false
		}
		return SerializeToString(frag2, 0, SerializeOptions{}) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertySizeLevelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		frag, err := ParseString(randomXML(r, 5), "p", ParseOptions{})
		if err != nil {
			return false
		}
		// Sum of child subtree spans (+attrs) equals parent size.
		for v := 0; v < frag.Len(); v++ {
			if frag.Kind[v] != KindElem {
				continue
			}
			span := int32(len(frag.Attributes(int32(v))))
			for _, c := range frag.Children(int32(v)) {
				span += frag.Size[c] + 1
			}
			if span != frag.Size[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
