package xmltree

import (
	"fmt"
	"strings"

	"repro/internal/xdm"
)

// Content applies the XQuery element-content rules (XQuery 3.1
// §3.9.1.3) to the element a Builder has open. The items of one enclosed
// expression go in through Add, and Flush ends the expression: its
// adjacent atomic values become one text node, joined by single spaces.
// Text nodes that end up adjacent — from two enclosed expressions, or one
// and literal text — merge with no blank between them (Builder.Text).
// Attribute nodes become attributes of the open element, must come
// before any other content of it and must not repeat one of its
// attribute names (XQDY0025); a text node is copied as text, so it
// merges with adjacent text too; other nodes are deep-copied
// (constructors copy, establishing fresh node identity and document order
// — interaction 2 of the paper). The oracle and the template kernel both
// build element content through it; the zero value is ready after Reset.
type Content struct {
	store *Store
	b     *Builder
	atoms []string  // the current expression's pending atomic values
	f     *Fragment // the last node item's fragment, fid its id
	fid   uint32
}

// Reset points the appender at the element b has open, resolving node
// items through store; its buffers stay.
func (c *Content) Reset(store *Store, b *Builder) { c.store, c.b = store, b }

// Add appends one item of the current enclosed expression.
func (c *Content) Add(it xdm.Item) error {
	if !it.IsNode() {
		c.atoms = append(c.atoms, it.StringValue())
		return nil
	}
	if c.f == nil || c.fid != it.N.Frag {
		c.f, c.fid = c.store.Frag(it.N.Frag), it.N.Frag
	}
	c.Flush()
	pre := it.N.Pre
	switch c.f.Kind[pre] {
	case KindText:
		c.b.Text(c.f.Value[pre]) // a copy that merges with adjacent text
		return nil
	case KindAttr:
		name := c.f.NodeName(pre)
		owner, ok := c.b.openWithoutContent()
		if !ok {
			return fmt.Errorf("xmltree: attribute %s after content of <%s>", name, owner)
		}
		if c.b.hasAttr(name) {
			return fmt.Errorf("xmltree: duplicate attribute %s of <%s> (XQDY0025)", name, owner)
		}
		c.b.Attr(name, c.f.Value[pre])
		return nil
	}
	c.b.CopySubtree(c.f, pre)
	return nil
}

// Flush ends the current enclosed expression.
func (c *Content) Flush() {
	if len(c.atoms) > 0 {
		c.b.Text(strings.Join(c.atoms, " "))
		c.atoms = c.atoms[:0]
	}
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
