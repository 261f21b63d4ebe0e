package compile

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/norm"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

func compileQuery(t *testing.T, src string, indiff bool) *Plan {
	t.Helper()
	m, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nm, err := norm.Normalize(m, norm.Options{InsertUnordered: indiff})
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	p, err := Compile(nm, Options{Indifference: indiff})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func stats(p *Plan) algebra.Stats { return algebra.PlanStats(p.Root) }

func TestRuleLOCEmitsRowNum(t *testing.T) {
	p := compileQuery(t, `doc("a.xml")/x/y`, false)
	s := stats(p)
	if s.Steps != 2 || s.RowNums != 2 || s.RowIDs != 0 {
		t.Errorf("LOC plan: steps=%d ρ=%d #=%d", s.Steps, s.RowNums, s.RowIDs)
	}
}

func TestRuleLOCHashUnderUnordered(t *testing.T) {
	p := compileQuery(t, `declare ordering unordered; doc("a.xml")/x/y`, true)
	s := stats(p)
	if s.Steps != 2 || s.RowNums != 0 || s.RowIDs != 2 {
		t.Errorf("LOC# plan: steps=%d ρ=%d #=%d", s.Steps, s.RowNums, s.RowIDs)
	}
	// Without the indifference rules, the declaration is ignored.
	p = compileQuery(t, `declare ordering unordered; doc("a.xml")/x/y`, false)
	if s := stats(p); s.RowIDs != 0 {
		t.Error("baseline compiler must ignore the ordering mode")
	}
}

func TestRuleBINDOrderedVsUnordered(t *testing.T) {
	src := `for $x in doc("a.xml")/p return $x`
	// ordered: 1 step-ρ + 1 bind-ρ + 1 backmap-ρ.
	if s := stats(compileQuery(t, src, false)); s.RowNums != 3 {
		t.Errorf("ordered for: ρ=%d, want 3", s.RowNums)
	}
	// unordered: only the backmap ρ remains (iter→seq is not disabled).
	u := `declare ordering unordered; ` + src
	if s := stats(compileQuery(t, u, true)); s.RowNums != 1 {
		t.Errorf("unordered for: ρ=%d, want 1", s.RowNums)
	}
}

func TestPositionalVariableForcesRowNum(t *testing.T) {
	// §2.2: at $p has no # rule even under ordering mode unordered.
	src := `declare ordering unordered; for $x at $p in doc("a.xml")/v return $p`
	p := compileQuery(t, src, true)
	if s := stats(p); s.RowNums < 1 {
		t.Errorf("positional for compiled without any ρ:\n%s", algebra.Print(p.Root))
	}
}

func TestFnUnorderedIdentityInBaseline(t *testing.T) {
	with := compileQuery(t, `unordered(doc("a.xml")/x)`, true)
	without := compileQuery(t, `unordered(doc("a.xml")/x)`, false)
	if stats(with).RowIDs == 0 {
		t.Error("FN:UNORDERED should emit # when indifference is on")
	}
	if stats(without).RowIDs != 0 {
		t.Error("fn:unordered must compile as identity in the baseline")
	}
}

func TestSequenceConcatEmitsOrderRowNum(t *testing.T) {
	p := compileQuery(t, `(1, 2)`, false)
	if s := stats(p); s.RowNums != 1 {
		t.Errorf("sequence ρ: %d", s.RowNums)
	}
}

func TestSharedSubexpressionsCompileOnce(t *testing.T) {
	// The same path twice: hash-consing must reunify the sub-plans.
	p := compileQuery(t, `(count(doc("a.xml")//x), count(doc("a.xml")//x))`, false)
	if s := stats(p); s.Steps != 2 { // d-o-s + child once, not twice
		t.Errorf("shared path compiled %d steps, want 2", s.Steps)
	}
}

func TestLetOnlyFLWORHasNoBackmap(t *testing.T) {
	p := compileQuery(t, `let $x := doc("a.xml")/v return $x`, false)
	for _, n := range algebra.Nodes(p.Root) {
		if n.Origin == "iter->seq order (3)" {
			t.Error("let-only FLWOR emitted a result-mapping ρ")
		}
	}
}

func TestJoinRecognitionShape(t *testing.T) {
	// The Q8 pattern: the where comparison over two independent sides
	// must compile to a value join (a θ-join of the keyed operand
	// tables), not to per-pair-iteration lifting or a product.
	src := `let $s := doc("a.xml")/site
	for $p in $s/people/person
	let $a := for $t in $s/closed_auctions/closed_auction
	          where $t/buyer/@person = $p/@id
	          return $t
	return count($a)`
	p := compileQuery(t, src, false)
	joinCmp := false
	for _, n := range algebra.Nodes(p.Root) {
		if n.Kind == algebra.OpJoin && n.Mode == algebra.JoinTheta && n.Cmp == xdm.CmpEq {
			joinCmp = true
		}
		if n.Kind == algebra.OpCross && n.Origin == "join (general comparison)" {
			t.Errorf("value join still evaluated over a product:\n%s", algebra.Print(p.Root))
		}
	}
	if !joinCmp {
		t.Errorf("comparison not evaluated as a value join:\n%s", algebra.Print(p.Root))
	}
}

func TestOrderByUsesHashBinding(t *testing.T) {
	// Case (f): a plain order by relaxes the for binding even in ordered
	// mode — but only with the indifference rules enabled.
	src := `for $x in doc("a.xml")/v order by $x return $x`
	p := compileQuery(t, src, true)
	hashBind := false
	for _, n := range algebra.Nodes(p.Root) {
		if n.Kind == algebra.OpRowID && n.Col == "bind" {
			hashBind = true
		}
	}
	if !hashBind {
		t.Errorf("order-by FLWOR did not use BIND#:\n%s", algebra.Print(p.Root))
	}
	// stable order by keeps the ordered binding.
	srcStable := `for $x in doc("a.xml")/v stable order by $x return $x`
	p2 := compileQuery(t, srcStable, true)
	for _, n := range algebra.Nodes(p2.Root) {
		if n.Kind == algebra.OpRowID && n.Col == "bind" {
			t.Error("stable order by must not relax the binding")
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		`$undefined`,
		`doc(concat("a", ".xml"))`, // non-literal URI
		`last()`,                   // outside predicates
		`position()`,
		`nosuchfn(1)`,
	} {
		m, err := xquery.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		nm, err := norm.Normalize(m, norm.Options{})
		if err != nil {
			t.Fatalf("normalize %q: %v", src, err)
		}
		if _, err := Compile(nm, Options{}); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		} else if !strings.Contains(err.Error(), "compile:") {
			t.Errorf("Compile(%q): error %v lacks prefix", src, err)
		}
	}
}

func TestFreeVars(t *testing.T) {
	c := &compiler{}
	cases := map[string][]string{
		`$a + $b`:                                 {"a", "b"},
		`for $x in $s return $x`:                  {"s"},
		`for $x in $s return $y`:                  {"s", "y"},
		`let $x := $a return $x`:                  {"a"},
		`some $v in $d satisfies $v = $w`:         {"d", "w"},
		`$p/a[@k = $q]`:                           {"p", "q"},
		`$p/a[. = 1]`:                             {"p"},
		`.`:                                       {"."},
		`count($l)`:                               {"l"},
		`<e a="{ $x }">{ $y }</e>`:                {"x", "y"},
		`for $x at $i in $s return ($x, $i)`:      {"s"},
		`for $x in (1, 2) return $x/self::node()`: {},
	}
	for src, want := range cases {
		m, err := xquery.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		fv := c.freeVars(m.Body)
		if len(fv) != len(want) {
			t.Errorf("freeVars(%q) = %v, want %v", src, fv, want)
			continue
		}
		for _, w := range want {
			if !fv[w] {
				t.Errorf("freeVars(%q) missing %q", src, w)
			}
		}
	}
}

func TestContainsConstructor(t *testing.T) {
	c := &compiler{}
	pos := `for $x in $s return <e>{ $x }</e>`
	neg := `for $x in $s return count($x)`
	m1, _ := xquery.Parse(pos)
	m2, _ := xquery.Parse(neg)
	if !c.containsConstructor(m1.Body) {
		t.Error("constructor not detected")
	}
	if c.containsConstructor(m2.Body) {
		t.Error("false positive constructor detection")
	}
}
