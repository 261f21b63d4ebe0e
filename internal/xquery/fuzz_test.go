package xquery

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/qerr"
)

// FuzzParseXQuery asserts the parser's total-function contract: arbitrary
// input either parses into a module or returns a classified error — it
// never panics and never exhausts the stack (the maxParseDepth guard).
// Every parsed module must also survive a recursive identity Rewrite with
// its String() unchanged: the child walk drops and reorders nothing.
func FuzzParseXQuery(f *testing.F) {
	for _, seed := range []string{
		`doc("t.xml")/a//(c|d)`,
		`unordered { for $x in doc("a.xml")//b return <r>{ $x/@id }</r> }`,
		`declare ordering unordered; declare function local:f($x) { $x + 1 }; local:f(2)`,
		`for $p in doc("auction.xml")/site/people/person where $p/@id = "p0" return $p/name`,
		`some $x in (1, 2, 3) satisfies $x > 2`,
		`<a b="{1+2}">{ "text" }</a>`,
		`(1, 2.5, "three")[2]`,
		`1 + `,
		`for $x in`,
		`<unclosed`,
		`((((((((((1))))))))))`,
		strings.Repeat("(", 600) + "1" + strings.Repeat(")", 600),
		"declare variable $x external; $x * 2",
		"(: comment (: nested :) :) 1",
		"&#x10FFFF; '&amp;'",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("input cap")
		}
		m, err := Parse(src)
		if err != nil {
			if m != nil {
				t.Fatalf("non-nil module alongside error %v", err)
			}
			if errors.Is(err, qerr.ErrInternal) {
				t.Fatalf("parser panic on %q: %v", src, err)
			}
			if !errors.Is(err, qerr.ErrParse) {
				t.Fatalf("unclassified parse failure on %q: %v", src, err)
			}
			return
		}
		exprs := []Expr{m.Body}
		for _, fd := range m.Functions {
			exprs = append(exprs, fd.Body)
		}
		for _, vd := range m.Variables {
			if vd.Init != nil {
				exprs = append(exprs, vd.Init)
			}
		}
		for _, e := range exprs {
			if got, want := identity(e).String(), e.String(); got != want {
				t.Fatalf("identity Rewrite of %q: %s, want %s", src, got, want)
			}
		}
	})
}

// identity rebuilds e bottom-up through Rewrite.
func identity(e Expr) Expr {
	return Rewrite(e, func(c Expr, _ []string) Expr { return identity(c) })
}

// TestParseDepthGuard pins the stack-exhaustion defence: pathological
// nesting is a positioned parse error, not a crash.
func TestParseDepthGuard(t *testing.T) {
	for name, src := range map[string]string{
		"parens":       strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000),
		"predicates":   "doc(\"t.xml\")/a" + strings.Repeat("[1 + (2", 60000),
		"constructors": strings.Repeat("<a>{", 60000),
		"negation_if":  strings.Repeat("if (1) then ", 60000) + "0 else 0",
	} {
		_, err := Parse(src)
		if err == nil {
			t.Fatalf("%s: deep nesting parsed", name)
		}
		if !errors.Is(err, qerr.ErrParse) {
			t.Errorf("%s: depth error not ErrParse: %v", name, err)
		}
	}
	// Realistic nesting stays well below the guard.
	ok := strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if _, err := Parse(ok); err != nil {
		t.Errorf("100-deep nesting rejected: %v", err)
	}
}

// TestParseErrorPositions runs a corpus of malformed queries and checks
// that each reports a 1-based line/column through the qerr taxonomy.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		src       string
		line, col int
	}{
		{`1 +`, 1, 4},                      // missing operand at EOF
		{"1,\n2,\n3 +", 3, 4},              // position tracks newlines
		{`for $x in (1,2) give $x`, 1, 17}, // bad FLWOR keyword
		{`doc("t.xml")/a[`, 1, 16},         // unterminated predicate
		{`declare ordering sideways; 1`, 1, 18},
		{"\n\n   $", 3, 5}, // bare $: missing name reported after it
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%q: parsed", tc.src)
			continue
		}
		if !errors.Is(err, qerr.ErrParse) {
			t.Errorf("%q: not ErrParse: %v", tc.src, err)
			continue
		}
		line, col, ok := qerr.PositionOf(err)
		if !ok {
			t.Errorf("%q: no position on %v", tc.src, err)
			continue
		}
		if line != tc.line || col != tc.col {
			t.Errorf("%q: position %d:%d, want %d:%d (%v)", tc.src, line, col, tc.line, tc.col, err)
		}
	}
}
