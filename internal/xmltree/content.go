package xmltree

import (
	"fmt"
	"strings"

	"repro/internal/xdm"
)

// AppendContent implements the XQuery element-content rules while building
// an element: attribute nodes become attributes of the element (and must
// precede any other content), consecutive atomic values are joined by
// single spaces into one text node, KRawText items become their own text
// nodes, and nodes are deep-copied (constructors copy, establishing fresh
// node identity and document order — interaction 2 of the paper).
func AppendContent(store *Store, b *Builder, elemName string, items []xdm.Item) error {
	sawContent := false
	pendingAtomics := b.atoms[:0]
	flushAtomics := func() {
		if len(pendingAtomics) > 0 {
			b.Text(strings.Join(pendingAtomics, " "))
			pendingAtomics = pendingAtomics[:0]
		}
	}
	var f *Fragment // the last item's fragment, fid its id
	var fid uint32
	for _, it := range items {
		switch {
		case it.IsNode():
			if f == nil || fid != it.N.Frag {
				f, fid = store.Frag(it.N.Frag), it.N.Frag
			}
			if f.Kind[it.N.Pre] == KindAttr {
				if sawContent || len(pendingAtomics) > 0 {
					return fmt.Errorf("xmltree: attribute %s after content of <%s>", f.NodeName(it.N.Pre), elemName)
				}
				b.Attr(f.NodeName(it.N.Pre), f.Value[it.N.Pre])
				continue
			}
			flushAtomics()
			b.CopySubtree(f, it.N.Pre)
			sawContent = true
		case it.Kind == xdm.KRawText:
			flushAtomics()
			b.Text(it.S)
			sawContent = true
		default:
			pendingAtomics = append(pendingAtomics, it.StringValue())
			sawContent = true
		}
	}
	flushAtomics()
	b.atoms = pendingAtomics
	return nil
}

// SerializeItems renders an item sequence per the XQuery serialization
// rules: adjacent atomic values are separated by one space, nodes are
// serialized as XML, free-standing attribute nodes are an error.
func SerializeItems(store *Store, items []xdm.Item) (string, error) {
	// One pass sizes the output (before escaping) so the builder
	// allocates once.
	n := 0
	for _, it := range items {
		if it.IsNode() {
			f := store.Frag(it.N.Frag)
			if f.Kind[it.N.Pre] == KindAttr {
				return "", fmt.Errorf("xmltree: cannot serialize free-standing attribute %s", f.NodeName(it.N.Pre))
			}
			n += f.serializedLen(it.N.Pre)
		} else {
			n += len(it.S) + 1
		}
	}
	var s serializer
	s.sb.Grow(n)
	prevAtomic := false
	for _, it := range items {
		if it.IsNode() {
			s.f = store.Frag(it.N.Frag)
			s.node(it.N.Pre, 0)
			prevAtomic = false
			continue
		}
		if prevAtomic {
			s.sb.WriteByte(' ')
		}
		textEscaper.WriteString(&s.sb, it.StringValue())
		prevAtomic = true
	}
	return s.sb.String(), nil
}
