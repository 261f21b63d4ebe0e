package xquery

import (
	"fmt"
	"strings"
	"testing"
)

// children renders e's children as "child [bound…]" in visiting order.
func children(e Expr) []string {
	var out []string
	Children(e, func(c Expr, bound []string) {
		out = append(out, fmt.Sprintf("%s %v", c, bound))
	})
	return out
}

// firstChild returns e's first child.
func firstChild(e Expr) Expr {
	var first Expr
	Children(e, func(c Expr, _ []string) {
		if first == nil {
			first = c
		}
	})
	return first
}

// TestChildrenEveryKind pins the slot list of every expression kind: the
// children, their order, and what the parent binds in each child's
// scope. It then rewrites every child to () and checks that Rewrite left
// its input alone.
func TestChildrenEveryKind(t *testing.T) {
	cases := []struct {
		src   string
		inner bool // the node under test is the body's first child
		kind  string
		want  []string
	}{
		{src: `1`, kind: "*xquery.IntLit"},
		{src: `1.5`, kind: "*xquery.DecLit"},
		{src: `"s"`, kind: "*xquery.StrLit"},
		{src: `$x`, kind: "*xquery.VarRef"},
		{src: `.`, kind: "*xquery.ContextItem"},
		{src: `()`, kind: "*xquery.EmptySeq"},
		{src: `<a>t</a>`, inner: true, kind: "*xquery.CharContent"},
		{src: `(1, $x)`, kind: "*xquery.Sequence", want: []string{"1 []", "$x []"}},
		{src: `$a/b[.]/c[1][$x]`, kind: "*xquery.Path",
			want: []string{"$a []", ". [.]", "1 [.]", "$x [.]"}},
		{src: `b[2]`, kind: "*xquery.Path", want: []string{"2 [.]"}},
		{src: `($a)[1][.]`, kind: "*xquery.Filter", want: []string{"$a []", "1 [.]", ". [.]"}},
		{src: `for $x at $i in $a let $y := $b where $c order by $d return $e`, kind: "*xquery.FLWOR",
			want: []string{"$a []", "$b [x i]", "$c [x i y]", "$d [x i y]", "$e [x i y]"}},
		{src: `let $y := $a for $x in $b return $c`, kind: "*xquery.FLWOR",
			want: []string{"$a []", "$b [y]", "$c [y x]"}},
		{src: `some $x in $a, $y in $b satisfies $c`, kind: "*xquery.Quantified",
			want: []string{"$a []", "$b [x]", "$c [x y]"}},
		{src: `every $x in $a satisfies $x`, kind: "*xquery.Quantified", want: []string{"$a []", "$x [x]"}},
		{src: `if ($a) then $b else $c`, kind: "*xquery.IfExpr", want: []string{"$a []", "$b []", "$c []"}},
		{src: `$a + $b`, kind: "*xquery.Arith", want: []string{"$a []", "$b []"}},
		{src: `-$a`, kind: "*xquery.Neg", want: []string{"$a []"}},
		{src: `$a = $b`, kind: "*xquery.GeneralCmp", want: []string{"$a []", "$b []"}},
		{src: `$a eq $b`, kind: "*xquery.ValueCmp", want: []string{"$a []", "$b []"}},
		{src: `$a << $b`, kind: "*xquery.NodeCmp", want: []string{"$a []", "$b []"}},
		{src: `$a or $b`, kind: "*xquery.Logic", want: []string{"$a []", "$b []"}},
		{src: `$a except $b`, kind: "*xquery.SetOp", want: []string{"$a []", "$b []"}},
		{src: `$a to $b`, kind: "*xquery.RangeExpr", want: []string{"$a []", "$b []"}},
		{src: `f($a, $b)`, kind: "*xquery.FuncCall", want: []string{"$a []", "$b []"}},
		{src: `unordered { $a }`, kind: "*xquery.OrderedExpr", want: []string{"$a []"}},
		{src: `<a b="x{$c}y" d="{$e}">t{$f}</a>`, kind: "*xquery.ElemCons",
			want: []string{"$c []", "$e []", `text{"t"} []`, "$f []"}},
	}
	kinds := map[string]bool{}
	for _, tc := range cases {
		m, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		e := m.Body
		if tc.inner {
			e = firstChild(e)
		}
		if got := fmt.Sprintf("%T", e); got != tc.kind {
			t.Fatalf("%q parses to %s, want %s", tc.src, got, tc.kind)
		}
		kinds[tc.kind] = true
		if got := children(e); strings.Join(got, " | ") != strings.Join(tc.want, " | ") {
			t.Errorf("%q: children %q, want %q", tc.src, got, tc.want)
		}

		before := e.String()
		n := 0
		out := Rewrite(e, func(Expr, []string) Expr {
			n++
			return &EmptySeq{}
		})
		if e.String() != before {
			t.Errorf("%q: Rewrite wrote into its input: now %s", tc.src, e)
		}
		if n != len(tc.want) {
			t.Errorf("%q: Rewrite visited %d children, Children %d", tc.src, n, len(tc.want))
		}
		for _, c := range children(out) {
			if !strings.HasPrefix(c, "() [") {
				t.Errorf("%q: rewritten child %s is not ()", tc.src, c)
			}
		}
		if n > 0 && out == e {
			t.Errorf("%q: Rewrite returned its input", tc.src)
		}
	}
	if len(kinds) != 24 {
		t.Errorf("covered %d expression kinds, want 24", len(kinds))
	}
}
