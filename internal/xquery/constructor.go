package xquery

import (
	"strings"

	"repro/internal/xdm"
)

// parseDirectConstructor parses <name attr="…{e}…">content</name> in
// expression position. It drives the lexer in raw character mode for tag
// and text scanning, and re-enters token mode for enclosed { } expressions.
// Boundary whitespace (whitespace-only text runs between child
// constructors/enclosed expressions) is stripped, matching the XQuery
// default boundary-space policy.
func (p *parser) parseDirectConstructor() (Expr, error) {
	if err := p.expectSym("<"); err != nil {
		return nil, err
	}
	p.lex.rawSync()
	return p.parseElemAfterLT()
}

// parseElemAfterLT parses an element constructor whose "<" has already
// been consumed; the lexer must be raw-synced.
func (p *parser) parseElemAfterLT() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l := p.lex
	name, pos := scanNCName(l.src, l.pos)
	if name == "" {
		return nil, l.errAt(l.pos, "expected element name in constructor")
	}
	l.pos = pos
	e := &ElemCons{Name: name}

	// Attributes.
	for {
		p.skipRawSpace()
		if l.pos >= len(l.src) {
			return nil, l.errAt(l.pos, "unterminated constructor <%s", name)
		}
		if strings.HasPrefix(l.src[l.pos:], "/>") {
			l.pos += 2
			return e, nil
		}
		if l.src[l.pos] == '>' {
			l.pos++
			break
		}
		aname, npos := scanNCName(l.src, l.pos)
		if aname == "" {
			return nil, l.errAt(l.pos, "expected attribute name in <%s>", name)
		}
		for _, prev := range e.Attrs {
			if prev.Name == aname {
				return nil, l.errAt(l.pos, "duplicate attribute %s in <%s> (XQST0040)", aname, name)
			}
		}
		l.pos = npos
		p.skipRawSpace()
		if l.pos >= len(l.src) || l.src[l.pos] != '=' {
			return nil, l.errAt(l.pos, "expected = after attribute %s", aname)
		}
		l.pos++
		p.skipRawSpace()
		parts, err := p.parseAttrValueTemplate()
		if err != nil {
			return nil, err
		}
		e.Attrs = append(e.Attrs, AttrCons{Name: aname, Parts: parts})
	}

	// Content.
	var text strings.Builder
	flushText := func() {
		s := text.String()
		text.Reset()
		// Whitespace-only runs here always sit between markup boundaries,
		// so the default boundary-space=strip policy drops them.
		if xdm.TrimXMLSpace(s) == "" {
			return
		}
		e.Content = append(e.Content, &CharContent{Text: s})
	}
	for {
		if l.pos >= len(l.src) {
			return nil, l.errAt(l.pos, "unterminated content of <%s>", name)
		}
		c := l.src[l.pos]
		switch {
		case strings.HasPrefix(l.src[l.pos:], "</"):
			flushText()
			l.pos += 2
			cname, npos := scanNCName(l.src, l.pos)
			if cname != name {
				return nil, l.errAt(l.pos, "mismatched closing tag </%s> for <%s>", cname, name)
			}
			l.pos = npos
			p.skipRawSpace()
			if l.pos >= len(l.src) || l.src[l.pos] != '>' {
				return nil, l.errAt(l.pos, "expected > in closing tag of %s", name)
			}
			l.pos++
			return e, nil
		case c == '<':
			flushText()
			l.pos++
			child, err := p.parseElemAfterLT()
			if err != nil {
				return nil, err
			}
			e.Content = append(e.Content, child)
		case strings.HasPrefix(l.src[l.pos:], "{{"):
			text.WriteByte('{')
			l.pos += 2
		case strings.HasPrefix(l.src[l.pos:], "}}"):
			text.WriteByte('}')
			l.pos += 2
		case c == '{':
			flushText()
			l.pos++
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("}"); err != nil {
				return nil, err
			}
			p.lex.rawSync()
			e.Content = append(e.Content, inner)
		case c == '&':
			rep, np, ok := scanEntity(l.src, l.pos)
			if !ok {
				return nil, l.errAt(l.pos, "malformed entity reference")
			}
			text.WriteString(rep)
			l.pos = np
		default:
			text.WriteByte(c)
			l.pos++
		}
	}
}

// parseAttrValueTemplate parses a quoted attribute value with embedded
// {expr} segments; the lexer must be raw-synced at the opening quote.
func (p *parser) parseAttrValueTemplate() ([]AttrPart, error) {
	l := p.lex
	if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
		return nil, l.errAt(l.pos, "expected quoted attribute value")
	}
	quote := l.src[l.pos]
	l.pos++
	var parts []AttrPart
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			parts = append(parts, AttrPart{Literal: lit.String()})
			lit.Reset()
		}
	}
	for {
		if l.pos >= len(l.src) {
			return nil, l.errAt(l.pos, "unterminated attribute value")
		}
		c := l.src[l.pos]
		switch {
		case c == quote:
			l.pos++
			flush()
			return parts, nil
		case strings.HasPrefix(l.src[l.pos:], "{{"):
			lit.WriteByte('{')
			l.pos += 2
		case strings.HasPrefix(l.src[l.pos:], "}}"):
			lit.WriteByte('}')
			l.pos += 2
		case c == '{':
			flush()
			l.pos++
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("}"); err != nil {
				return nil, err
			}
			p.lex.rawSync()
			parts = append(parts, AttrPart{Expr: inner})
		case c == '&':
			rep, np, ok := scanEntity(l.src, l.pos)
			if !ok {
				return nil, l.errAt(l.pos, "malformed entity reference")
			}
			lit.WriteString(rep)
			l.pos = np
		default:
			lit.WriteByte(c)
			l.pos++
		}
	}
}

// skipRawSpace advances over whitespace in raw mode.
func (p *parser) skipRawSpace() {
	l := p.lex
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}
