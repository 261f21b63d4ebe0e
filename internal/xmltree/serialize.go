package xmltree

import "strings"

// SerializeOptions controls XML serialization.
type SerializeOptions struct {
	// Indent, when non-empty, pretty-prints element content with the given
	// unit of indentation. Mixed content (elements with text siblings) is
	// never re-indented.
	Indent string
}

// SerializeToString renders the subtree rooted at pre as XML text.
// Document nodes serialize their children; attribute nodes serialize as
// name="value" (useful only in diagnostics — XDM serialization of
// free-standing attributes is an error, which callers enforce).
func SerializeToString(f *Fragment, pre int32, opts SerializeOptions) string {
	s := serializer{f: f, indent: opts.Indent}
	s.sb.Grow(f.serializedLen(pre))
	s.node(pre, 0)
	return s.sb.String()
}

// serializedLen is the length of the unindented serialization of the
// subtree rooted at v before escaping: the size serializers reserve.
func (f *Fragment) serializedLen(v int32) int {
	n := 0
	for c := v; c <= v+f.Size[v]; c++ {
		switch f.Kind[c] {
		case KindElem:
			n += 2*len(f.NodeName(c)) + 5 // <name></name>
		case KindAttr:
			n += len(f.NodeName(c)) + len(f.Value[c]) + 4 //  name=""
		case KindText:
			n += len(f.Value[c])
		}
	}
	return n
}

// serializer writes one fragment's nodes into one builder: names, values
// and markup go in as separate writes, and children are reached by
// skipping subtrees, so a node costs no allocation of its own.
type serializer struct {
	sb     strings.Builder
	f      *Fragment
	indent string
}

func (s *serializer) newline(depth int) {
	s.sb.WriteByte('\n')
	for range depth {
		s.sb.WriteString(s.indent)
	}
}

func (s *serializer) attr(a int32) {
	s.sb.WriteString(s.f.NodeName(a))
	s.sb.WriteString(`="`)
	attrEscaper.WriteString(&s.sb, s.f.Value[a])
	s.sb.WriteByte('"')
}

func (s *serializer) node(v int32, depth int) {
	f := s.f
	end := v + f.Size[v]
	switch f.Kind[v] {
	case KindDoc:
		for c := v + 1; c <= end; c += f.Size[c] + 1 {
			s.node(c, depth)
			if s.indent != "" {
				s.sb.WriteByte('\n')
			}
		}
	case KindText:
		textEscaper.WriteString(&s.sb, f.Value[v])
	case KindAttr:
		s.attr(v)
	case KindElem:
		s.sb.WriteByte('<')
		s.sb.WriteString(f.NodeName(v))
		first := v + 1 // attributes directly follow their owner
		for ; first <= end && f.Kind[first] == KindAttr; first++ {
			s.sb.WriteByte(' ')
			s.attr(first)
		}
		if first > end {
			s.sb.WriteString("/>")
			return
		}
		s.sb.WriteByte('>')
		pretty := s.indent != ""
		for c := first; pretty && c <= end; c += f.Size[c] + 1 {
			pretty = f.Kind[c] != KindText
		}
		for c := first; c <= end; c += f.Size[c] + 1 {
			if pretty {
				s.newline(depth + 1)
			}
			s.node(c, depth+1)
		}
		if pretty {
			s.newline(depth)
		}
		s.sb.WriteString("</")
		s.sb.WriteString(f.NodeName(v))
		s.sb.WriteByte('>')
	}
}

var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText escapes character data for XML text content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes character data for a double-quoted attribute value.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }
