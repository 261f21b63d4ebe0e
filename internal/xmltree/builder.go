package xmltree

import (
	"fmt"
	"slices"
)

// Builder constructs a Fragment in document order. It is used by the XML
// parser, the XMark generator, and the runtime twig-construction operator
// (element constructors copy their content into a fresh fragment, which is
// how sequence order establishes document order — interaction 2 of the
// paper).
//
// Usage: StartDoc/StartElem, then for each element optionally Attr calls
// (before any content), child content, EndElem. Close fixes up subtree
// sizes and returns the fragment.
type Builder struct {
	frag    *Fragment
	open    []int32  // stack of open node preorder ranks
	lastTop int32    // top-of-stack when the last text node was appended, for merging
	names   []string // the dictionary the fragment's names index; "" is id 0
	ids     map[string]uint32

	// CopySubtree's translation of the last source dictionary, remapSrc:
	// remap[s] is the builder's id of source id s plus one, or 0 until
	// the first copy of a node named s.
	remapSrc []string
	remap    []uint32
}

// NewBuilder returns an empty builder. The fragment's ID is assigned when
// it is added to a Store.
func NewBuilder() *Builder {
	return &Builder{frag: &Fragment{}, lastTop: -2, names: []string{""}}
}

// intern returns name's id in the builder's dictionary, adding it on
// first use. A scan finds the first few names; a map takes over from
// dictMapAt names on.
func (b *Builder) intern(name string) uint32 {
	if b.ids == nil {
		for i, n := range b.names {
			if n == name {
				return uint32(i)
			}
		}
		if len(b.names) < dictMapAt {
			b.names = append(b.names, name)
			return uint32(len(b.names) - 1)
		}
		b.ids = make(map[string]uint32, 2*len(b.names))
		for i, n := range b.names {
			b.ids[n] = uint32(i)
		}
	} else if id, ok := b.ids[name]; ok {
		return id
	}
	id := uint32(len(b.names))
	b.names = append(b.names, name)
	b.ids[name] = id
	return id
}

// dictMapAt is the dictionary size from which a builder interns names
// through a map rather than a scan.
const dictMapAt = 8

// reserve makes room for n more nodes in every column, doubling their
// capacity when they must grow: append's own growth (1.25x for large
// slices) leaves about four times the finished columns behind as garbage
// when a document is parsed.
func (f *Fragment) reserve(n int) {
	if cap(f.Kind)-len(f.Kind) >= n {
		return
	}
	c := max(2*cap(f.Kind), len(f.Kind)+n, 64)
	f.Kind = append(make([]NodeKind, 0, c), f.Kind...)
	f.Name = append(make([]uint32, 0, c), f.Name...)
	f.Value = append(make([]string, 0, c), f.Value...)
	f.Size = append(make([]int32, 0, c), f.Size...)
	f.Level = append(make([]int32, 0, c), f.Level...)
	f.Parent = append(make([]int32, 0, c), f.Parent...)
}

func (b *Builder) push(kind NodeKind, name uint32, value string) int32 {
	f := b.frag
	f.reserve(1)
	pre := int32(f.Len())
	parent := int32(-1)
	level := int32(0)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
		level = f.Level[parent] + 1
	}
	f.Kind = append(f.Kind, kind)
	f.Name = append(f.Name, name)
	f.Value = append(f.Value, value)
	f.Size = append(f.Size, 0)
	f.Level = append(f.Level, level)
	f.Parent = append(f.Parent, parent)
	return pre
}

// StartDoc opens a document node; it must be the first node if used.
func (b *Builder) StartDoc(uri string) {
	if b.frag.Len() != 0 {
		panic("xmltree: StartDoc on non-empty builder")
	}
	b.frag.Name_ = uri
	pre := b.push(KindDoc, 0, "")
	b.open = append(b.open, pre)
}

// StartElem opens an element node.
func (b *Builder) StartElem(name string) {
	pre := b.push(KindElem, b.intern(name), "")
	b.open = append(b.open, pre)
	b.lastTop = -2
}

// Attr appends an attribute node to the currently open element. Attributes
// must be added before any child content so that they sit directly after
// their owner in preorder.
func (b *Builder) Attr(name, value string) {
	if n := len(b.open); n == 0 || b.frag.Kind[b.open[n-1]] != KindElem {
		panic("xmltree: Attr outside an open element")
	}
	if _, ok := b.openWithoutContent(); !ok {
		panic("xmltree: Attr after element content")
	}
	b.push(KindAttr, b.intern(name), value)
}

// openWithoutContent returns the open node's name and whether everything
// after it so far is its own attributes.
func (b *Builder) openWithoutContent() (string, bool) {
	owner := b.open[len(b.open)-1]
	last := int32(b.frag.Len() - 1)
	return b.names[b.frag.Name[owner]], last == owner || (b.frag.Kind[last] == KindAttr && b.frag.Parent[last] == owner)
}

// hasAttr reports whether the open element already has an attribute
// called name.
func (b *Builder) hasAttr(name string) bool {
	f := b.frag
	for a := b.open[len(b.open)-1] + 1; a < int32(f.Len()) && f.Kind[a] == KindAttr; a++ {
		if b.names[f.Name[a]] == name {
			return true
		}
	}
	return false
}

// Text appends a text node; adjacent text nodes under the same parent are
// merged, and empty strings are dropped (XDM forbids empty text nodes).
func (b *Builder) Text(value string) {
	if value == "" {
		return
	}
	f := b.frag
	n := len(b.open)
	var top int32 = -1
	if n > 0 {
		top = b.open[n-1]
	}
	last := int32(f.Len() - 1)
	if last >= 0 && f.Kind[last] == KindText && b.lastTop == top {
		f.Value[last] += value
		return
	}
	b.push(KindText, 0, value)
	b.lastTop = top
}

// EndElem closes the current element (or document) node and fixes its
// subtree size.
func (b *Builder) EndElem() {
	n := len(b.open)
	if n == 0 {
		panic("xmltree: EndElem with no open element")
	}
	v := b.open[n-1]
	b.open = b.open[:n-1]
	b.frag.Size[v] = int32(b.frag.Len()) - v - 1
	b.lastTop = -2
}

// CopySubtree appends a deep copy of the subtree rooted at src:pre
// (including attributes) as content of the currently open element. This is
// the node-copying step of XQuery element construction. Names are
// translated into the builder's dictionary through a table kept for the
// last source dictionary, so a copied node costs no map lookup.
func (b *Builder) CopySubtree(src *Fragment, pre int32) {
	f := b.frag
	n := len(b.open)
	if n == 0 {
		panic("xmltree: CopySubtree with no open element")
	}
	f.reserve(int(src.Size[pre]) + 1)
	base := int32(f.Len())
	parentLevel := f.Level[b.open[n-1]]
	srcLevel := src.Level[pre]
	end := pre + src.Size[pre]
	if !SameDict(b.remapSrc, src.Names) {
		b.remapSrc = src.Names
		b.remap = slices.Grow(b.remap[:0], len(src.Names))[:len(src.Names)]
		clear(b.remap)
	}
	for c := pre; c <= end; c++ {
		f.Kind = append(f.Kind, src.Kind[c])
		id := b.remap[src.Name[c]]
		if id == 0 {
			id = b.intern(src.Names[src.Name[c]]) + 1
			b.remap[src.Name[c]] = id
		}
		f.Name = append(f.Name, id-1)
		f.Value = append(f.Value, src.Value[c])
		f.Size = append(f.Size, src.Size[c])
		f.Level = append(f.Level, src.Level[c]-srcLevel+parentLevel+1)
		p := src.Parent[c]
		if c == pre {
			f.Parent = append(f.Parent, b.open[n-1])
		} else {
			f.Parent = append(f.Parent, p-pre+base)
		}
	}
	b.lastTop = -2
}

// Close finalizes the fragment; any still-open nodes are closed, and
// columns that doubling left more than a quarter empty are cut to their
// length. The builder must not be reused afterwards.
func (b *Builder) Close() *Fragment {
	f := b.end()
	if n := f.Len(); cap(f.Kind)-n > n/4 {
		f.Kind, f.Name, f.Value = slices.Clone(f.Kind), slices.Clone(f.Name), slices.Clone(f.Value)
		f.Size, f.Level, f.Parent = slices.Clone(f.Size), slices.Clone(f.Level), slices.Clone(f.Parent)
	}
	return f
}

// end closes every open node and detaches the fragment with the
// dictionary as it stands (a Slab re-arms its builder afterwards).
func (b *Builder) end() *Fragment {
	for len(b.open) > 0 {
		b.EndElem()
	}
	f := b.frag
	b.frag = nil
	f.Names = b.names
	return f
}

// Validate checks the structural invariants of a fragment: sizes cover
// exactly the subtree span, levels increase by one along parent edges, and
// attribute nodes directly follow their owner. It is used by tests and the
// property-based checks.
func Validate(f *Fragment) error {
	if f.Len() == 0 {
		return fmt.Errorf("xmltree: empty fragment")
	}
	if f.Level[0] != 0 || f.Parent[0] != -1 {
		return fmt.Errorf("xmltree: bad root encoding")
	}
	if int(f.Size[0]) != f.Len()-1 {
		return fmt.Errorf("xmltree: root size %d does not span fragment of %d nodes", f.Size[0], f.Len())
	}
	for v := 0; v < f.Len(); v++ {
		p := f.Parent[v]
		if v > 0 {
			if p < 0 || int32(v) <= p || int32(v) > p+f.Size[p] {
				return fmt.Errorf("xmltree: node %d outside parent %d subtree", v, p)
			}
			if f.Level[v] != f.Level[p]+1 {
				return fmt.Errorf("xmltree: node %d level %d, parent level %d", v, f.Level[v], f.Level[p])
			}
		}
		if f.Kind[v] == KindAttr && f.Size[v] != 0 {
			return fmt.Errorf("xmltree: attribute %d with non-empty subtree", v)
		}
		if v > 0 && f.Kind[v] == KindAttr && f.Kind[p] != KindElem { // a root attribute is free-standing
			return fmt.Errorf("xmltree: attribute %d owned by non-element", v)
		}
		end := int32(v) + f.Size[v]
		if end >= int32(f.Len()) {
			return fmt.Errorf("xmltree: node %d size %d exceeds fragment", v, f.Size[v])
		}
	}
	return nil
}
