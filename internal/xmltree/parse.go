package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/qerr"
	"repro/internal/xdm"
)

// ParseOptions controls XML parsing.
type ParseOptions struct {
	// KeepWhitespaceText retains text nodes consisting solely of
	// whitespace. The default (false) strips them, which matches the
	// boundary-whitespace handling most XQuery processors apply to
	// data-oriented documents such as the XMark instances.
	KeepWhitespaceText bool

	// Input guards. Zero means unlimited (the historical behaviour);
	// DefaultLimits returns the guarded configuration applied on the
	// public document-loading path. Exceeding a guard aborts parsing with
	// an error wrapping qerr.ErrLimit (and therefore qerr.ErrParse).

	// MaxDepth bounds element nesting depth.
	MaxDepth int
	// MaxBytes bounds the raw input size consumed from the reader.
	MaxBytes int64
	// MaxNodes bounds the number of nodes (elements, attributes, texts)
	// materialized in the fragment.
	MaxNodes int
}

// DefaultLimits returns ParseOptions with the input guards set to the
// defaults used by the public LoadDocument path: generous enough for any
// realistic document (a factor-5 XMark instance fits comfortably), tight
// enough that a hostile input cannot exhaust memory or nesting.
func DefaultLimits() ParseOptions {
	return ParseOptions{
		MaxDepth: 1024,
		MaxBytes: 1 << 30, // 1 GiB of raw XML
		MaxNodes: 1 << 26, // ~67M nodes
	}
}

// limitedReader counts bytes consumed and fails past the cap; unlike
// io.LimitReader it distinguishes "input ended" from "input too large".
type limitedReader struct {
	r     io.Reader
	n     int64 // remaining budget
	upper int64 // configured cap, for the error message
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, fmt.Errorf("input exceeds the configured limit of %d bytes (%d bytes read, more present): %w",
			l.upper, l.upper, qerr.ErrLimit)
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// Parse reads an XML document from r into an order-encoded fragment with a
// document node at preorder rank 0. Comments and processing instructions
// are skipped (the eXrQuy algebra does not observe them). Malformed input
// yields an error wrapping qerr.ErrParse (with the decoder's line number
// when available); tripped input guards wrap qerr.ErrLimit.
func Parse(r io.Reader, uri string, opts ParseOptions) (*Fragment, error) {
	if opts.MaxBytes > 0 {
		r = &limitedReader{r: r, n: opts.MaxBytes, upper: opts.MaxBytes}
	}
	dec := xml.NewDecoder(r)
	b := NewBuilder()
	b.StartDoc(uri)
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, parseErr(uri, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
				return nil, limitErr(uri, "element nesting of %d exceeds the configured limit of %d levels", depth+1, opts.MaxDepth)
			}
			b.StartElem(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attr(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			b.EndElem()
			depth--
		case xml.CharData:
			if depth == 0 {
				continue // whitespace between top-level constructs
			}
			s := string(t)
			if !opts.KeepWhitespaceText && xdm.TrimXMLSpace(s) == "" {
				continue
			}
			b.Text(s)
		}
		if opts.MaxNodes > 0 && b.frag.Len() > opts.MaxNodes {
			return nil, limitErr(uri, "document of %d nodes exceeds the configured limit of %d", b.frag.Len(), opts.MaxNodes)
		}
	}
	if depth != 0 {
		return nil, parseErr(uri, fmt.Errorf("unbalanced document"))
	}
	f := b.Close()
	if f.Len() == 1 {
		return nil, parseErr(uri, fmt.Errorf("no root element"))
	}
	return f, nil
}

// parseErr classifies a document parse failure, carrying the decoder's
// line number when the underlying error exposes one.
func parseErr(uri string, err error) error {
	if errors.Is(err, qerr.ErrLimit) {
		// A guard tripped inside the reader; keep its classification.
		return qerr.New(qerr.ErrLimit, "parse", fmt.Errorf("xmltree: parse %s: %w", uri, err))
	}
	line := 0
	var se *xml.SyntaxError
	if errors.As(err, &se) {
		line = se.Line
	}
	return qerr.At(qerr.ErrParse, "parse", line, 0,
		fmt.Errorf("xmltree: parse %s: %w", uri, err))
}

func limitErr(uri, format string, args ...any) error {
	return qerr.New(qerr.ErrLimit, "parse",
		fmt.Errorf("xmltree: parse %s: %s", uri, fmt.Sprintf(format, args...)))
}

// ParseString is Parse over an in-memory document.
func ParseString(doc, uri string, opts ParseOptions) (*Fragment, error) {
	return Parse(strings.NewReader(doc), uri, opts)
}

// MustParseString parses or panics; intended for tests and examples with
// literal documents.
func MustParseString(doc string) *Fragment {
	f, err := ParseString(doc, "inline", ParseOptions{})
	if err != nil {
		panic(err)
	}
	return f
}
