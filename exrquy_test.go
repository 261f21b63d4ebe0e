package exrquy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xdm"
)

func newTestEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng := New(opts...)
	if err := eng.LoadDocumentString("t.xml", `<a><b><c/><d/></b><c/></a>`); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestQuickstart(t *testing.T) {
	eng := newTestEngine(t)
	res, err := eng.Query(`doc("t.xml")/a//(c|d)`)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := res.XML()
	if err != nil {
		t.Fatal(err)
	}
	if xml != "<c/><d/><c/>" {
		t.Errorf("result: %q", xml)
	}
	if res.Len() != 3 {
		t.Errorf("len: %d", res.Len())
	}
}

func TestUnorderedPermutation(t *testing.T) {
	eng := newTestEngine(t)
	res, err := eng.Query(`unordered { doc("t.xml")/a//(c|d) }`)
	if err != nil {
		t.Fatal(err)
	}
	items, err := res.Items()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(items)
	if strings.Join(items, "") != "<c/><c/><d/>" {
		t.Errorf("multiset: %v", items)
	}
}

func TestPlanStatsReflectConfiguration(t *testing.T) {
	q, err := newTestEngine(t).Compile(`doc("t.xml")/a//(c|d)`)
	if err != nil {
		t.Fatal(err)
	}
	_, after := q.PlanStats()
	if after.Operators == 0 {
		t.Error("empty stats")
	}
	// Baseline engine: no # anywhere, no optimization.
	qb, err := newTestEngine(t, WithOrderIndifference(false)).Compile(`unordered { doc("t.xml")/a//(c|d) }`)
	if err != nil {
		t.Fatal(err)
	}
	before, afterB := qb.PlanStats()
	if afterB.Stamps != 0 || before != afterB {
		t.Errorf("baseline stats: %+v -> %+v", before, afterB)
	}
	// Unordered engine: the union plan loses all sorts.
	qu, err := newTestEngine(t, WithOrdering(Unordered)).Compile(`doc("t.xml")/a//(c|d)`)
	if err != nil {
		t.Fatal(err)
	}
	_, afterU := qu.PlanStats()
	if afterU.Sorts != 0 {
		t.Errorf("unordered union plan keeps %d sorts", afterU.Sorts)
	}
}

func TestReferenceAgreement(t *testing.T) {
	eng := newTestEngine(t)
	for _, q := range []string{
		`count(doc("t.xml")/a//(c|d))`,
		`for $x in doc("t.xml")/a/b/* return name($x)`,
		`(let $b := doc("t.xml")/a//b, $d := doc("t.xml")/a//d,
		  $e := <e>{ $d, $b }</e> return ($b << $d, $e/b << $e/d))`,
	} {
		got, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := eng.Reference(q)
		if err != nil {
			t.Fatalf("%s (ref): %v", q, err)
		}
		g, _ := got.XML()
		w, _ := want.XML()
		if g != w {
			t.Errorf("%s: pipeline %q vs reference %q", q, g, w)
		}
	}
}

// TestXSDoubleCastsAndRounding: untyped text casts to xs:double by
// xs:double's lexical rules, not Go's float syntax, and fn:round and
// fn:substring round half up without the error of floor(x + 0.5) — in the
// pipeline and in the reference interpreter alike.
func TestXSDoubleCastsAndRounding(t *testing.T) {
	eng := New()
	if err := eng.LoadDocumentString("d.xml", `<r><a>inf</a><a>1_000</a><a>0x1p3</a></r>`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, want string }{
		{`for $a in doc("d.xml")//a return number($a)`, "NaN NaN NaN"},
		{`round(0.49999999999999994)`, "0"},
		{`round(4503599627370497.0)`, "4.503599627370497e+15"},
		{`(round(-2.5), round(2.5))`, "-2 3"},
		{`substring("abcde", 0.49999999999999994, 2.5)`, "ab"},
	} {
		for name, run := range map[string]func(string) (*Result, error){"pipeline": eng.Query, "reference": eng.Reference} {
			res, err := run(c.q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.q, err)
			}
			if got, _ := res.XML(); got != c.want {
				t.Errorf("%s %s = %q, want %q", name, c.q, got, c.want)
			}
		}
	}
	q := `doc("d.xml")//a[. = 1000]`
	for name, run := range map[string]func(string) (*Result, error){"pipeline": eng.Query, "reference": eng.Reference} {
		if res, err := run(q); err == nil {
			got, _ := res.XML()
			t.Errorf("%s %s = %q, want a cast error", name, q, got)
		}
	}
}

// TestOrderByMixedNumericKeys: an order by column that mixes integers and
// doubles is ordered in xs:double, the least common type with a gt
// operator (XQuery 3.1 §3.12.8), so two integers that round to one double
// tie and a stable order by keeps their input order. In ordered mode the
// pipeline and the reference interpreter give exactly that order; under
// ordering mode unordered the order of ties is implementation-dependent,
// so only the bag is compared.
func TestOrderByMixedNumericKeys(t *testing.T) {
	ordered, unordered := New(), New(WithOrdering(Unordered))
	for _, c := range []struct{ q, want string }{
		{`for $x in (9007199254740993, 9007199254740992, 1e0) stable order by $x return $x`,
			"1 9007199254740993 9007199254740992"},
		{`for $x in (9007199254740992, 9007199254740993, 1e0) stable order by $x descending return $x`,
			"9007199254740992 9007199254740993 1"},
	} {
		for name, run := range map[string]func(string) (*Result, error){
			"pipeline": ordered.Query, "reference": ordered.Reference, "unordered": unordered.Query,
		} {
			res, err := run(c.q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.q, err)
			}
			got, err := res.Items()
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Fields(c.want)
			if name == "unordered" {
				sort.Strings(got)
				sort.Strings(want)
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s %s = %q, want %q", name, c.q, got, c.want)
			}
		}
	}
}

// TestValueJoinErrorParity: a general comparison the compiler evaluates
// as a value join (two θ-joins over the operand tables, one per mode)
// raises exactly where the per-iteration semantics does — the reference
// interpreter is the witness — in both ordering modes.
func TestValueJoinErrorParity(t *testing.T) {
	const doc = `<r><n>3</n><b>x</b><n>7</n>
		<g t="n" k="1"><v>1</v><v>2</v></g><g t="s" k="s"><v>s</v><v>t</v></g></r>`
	for _, c := range []struct{ name, query, want string }{
		{"incomparable pair and no true one raises",
			`for $p in ("s") let $l := for $i in (1,2) where $i = $p return $i return count($l)`, ""},
		{"failed cast and no true pair raises",
			`for $p in doc("v.xml")/r/b let $l := for $i in (1,2) where $i > $p return $i return count($l)`, ""},
		{"one iteration with only the incomparable pair raises",
			`for $p in doc("v.xml")/r let $l := for $i in (1, 9) where $i > $p/(n|b) return $i return count($l)`, ""},
		{"a true pair hides an incomparable one",
			`for $p in doc("v.xml")/r let $l := for $i in (5, 9) where $i > $p/(n|b) return $i return count($l)`, "2"},
		{"comparable pairs only",
			`for $p in doc("v.xml")/r/n let $l := for $i in (1,5,9) where $i > $p return $i return count($l)`, "2 1"},
		{"an incomparable pair that never shares an iteration does not raise",
			`for $g in doc("v.xml")/r/g
			 let $k := if ($g/@t = "n") then number($g/@k) else string($g/@k)
			 return count(for $v in (if ($g/@t = "n") then (1, 2) else ("s", "t")) where $v = $k return $v)`, "1 1"},
		{"a let between the for and the where does not hide the error",
			`for $p in ("s") let $l := for $i in (1,2) let $j := $i * 2 where $i = $p return $j return count($l)`, ""},
	} {
		for _, ordering := range []Ordering{Ordered, Unordered} {
			eng := New(WithOrdering(ordering))
			if err := eng.LoadDocumentString("v.xml", doc); err != nil {
				t.Fatal(err)
			}
			q, err := eng.Compile(c.query)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if plan := q.Explain(); !strings.Contains(plan, "join incomparable(") || strings.Contains(plan, "cross  (join (general comparison))") {
				t.Fatalf("%s: comparison not evaluated by θ-joins:\n%s", c.name, plan)
			}
			got, gerr := eng.Query(c.query)
			ref, rerr := eng.Reference(c.query)
			if (gerr != nil) != (rerr != nil) || (gerr != nil) != (c.want == "") {
				t.Errorf("%s (%v): pipeline error %v, reference error %v, want result %q", c.name, ordering, gerr, rerr, c.want)
				continue
			}
			if gerr != nil {
				continue
			}
			g, _ := got.XML()
			r, _ := ref.XML()
			if g != c.want || r != c.want {
				t.Errorf("%s (%v): pipeline %q, reference %q, want %q", c.name, ordering, g, r, c.want)
			}
		}
	}
}

// TestValueJoinFusionDifferential: a for clause whose iterations are
// minted from the value join in its where clause returns what the
// reference interpreter returns — byte-equal in ordering mode ordered,
// bag-equal in unordered — across the shapes the minting accepts, the one
// it must decline (at $k: positions count the whole binding sequence) and
// the edge cases of the join itself.
func TestValueJoinFusionDifferential(t *testing.T) {
	const doc = `<s>
		<p id="a" v="1"/><p id="b" v="2"/><p id="c" v="NaN"/><p id="d" v="x"/><p id="e" v="2"/>
		<o k="2" r="a"/><o k="1" r="b"/><o k="2" r="a"/><o k="NaN" r="c"/><o k="3" r="e"/>
		<g k="2"><i n="1"/><i n="2"/></g><g k="3"><i n="2"/><i n="3"/><i n="3"/></g></s>`
	const p, o = `doc("j.xml")/s/p`, `doc("j.xml")/s/o`
	for _, c := range []struct {
		name, query string
		minted      bool
	}{
		{"let between for and where (Q9)", `for $p in ` + p + `
			let $l := for $o in ` + o + ` let $r := string($o/@k) where $o/@r = $p/@id return <m>{ $r }</m>
			return <r id="{ $p/@id }">{ $l }</r>`, true},
		{"where join and filter", `for $p in ` + p + `
			return count(for $o in ` + o + ` where $o/@k = $p/@v and $o/@r != "a" return $o)`, true},
		{"where filter and join", `for $p in ` + p + `
			return <r>{ for $o in ` + o + ` where exists($o/@r) and $p/@id = $o/@r return string($o/@k) }</r>`, true},
		{"positional variable keeps the pair space", `for $p in ` + p + `
			return <r>{ for $o at $k in ` + o + ` where $o/@r = $p/@id return $k }</r>`, false},
		{"inner order by", `for $p in ` + p + `
			return <r>{ for $o in ` + o + ` where $o/@k >= $p/@v order by string($o/@r) descending return string($o/@r) }</r>`, true},
		{"inner sequence depends on the outer variable", `for $g in doc("j.xml")/s/g let $k := $g/@k
			return <r>{ for $i in $g/i where $i/@n = $k return string($i/@n) }</r>`, true},
		{"empty inner side", `for $p in ` + p + `
			return count(for $o in doc("j.xml")/s/none where $o/@r = $p/@id return $o)`, true},
		{"empty outer side", `for $p in doc("j.xml")/s/none
			return count(for $o in ` + o + ` where $o/@r = $p/@id return $o)`, true},
		{"duplicate keys", `for $p in ` + p + `
			return <r>{ for $o in ` + o + ` where $o/@k = $p/@v return string($o/@r) }</r>`, true},
		{"NaN never compares", `for $p in ` + p + `
			return count(for $o in ` + o + ` where number($o/@k) <= number($p/@v) return $o)`, true},
		{"typed against untyped", `for $p in ` + p + `[@v != "x"]
			return <r>{ for $o in ` + o + ` where number($o/@k) = $p/@v return string($o/@r) }</r>`, true},
		{"mixed typed outer sequence", `for $x in (1, "2", 2.5)
			return count(for $o in ` + o + ` where $o/@k = $x return $o)`, true},
		{"three-level nest", `for $p in ` + p + `
			return <r>{ for $o in ` + o + ` where $o/@r = $p/@id
				return <m>{ for $q in ` + p + ` where $q/@v = $o/@k return string($q/@id) }</m> }</r>`, true},
	} {
		for _, ordering := range []Ordering{Ordered, Unordered} {
			eng := New(WithOrdering(ordering))
			if err := eng.LoadDocumentString("j.xml", doc); err != nil {
				t.Fatal(err)
			}
			q, err := eng.Compile(c.query)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if minted := !strings.Contains(q.Explain(), "(join (iteration mapping))"); minted != c.minted {
				t.Errorf("%s (%v): inner loop minted from the join = %v, want %v:\n%s", c.name, ordering, minted, c.minted, q.Explain())
			}
			got, err := q.Execute()
			if err != nil {
				t.Fatalf("%s (%v): %v", c.name, ordering, err)
			}
			ref, err := eng.Reference(c.query)
			if err != nil {
				t.Fatalf("%s (ref): %v", c.name, err)
			}
			g, _ := got.Items()
			r, _ := ref.Items()
			if ordering == Unordered {
				sort.Strings(g)
				sort.Strings(r)
			}
			if strings.Join(g, "|") != strings.Join(r, "|") {
				t.Errorf("%s (%v):\npipeline  %q\nreference %q", c.name, ordering, g, r)
			}
		}
	}
}

func TestExplainShowsOperators(t *testing.T) {
	q, err := newTestEngine(t).Compile(`count(doc("t.xml")//c)`)
	if err != nil {
		t.Fatal(err)
	}
	plan := q.Explain()
	if !strings.Contains(plan, "aggr") || !strings.Contains(plan, "step") {
		t.Errorf("explain output:\n%s", plan)
	}
}

func TestProfileAvailable(t *testing.T) {
	eng := newTestEngine(t)
	res, err := eng.Query(`count(doc("t.xml")//c)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile()) == 0 || res.Elapsed() <= 0 {
		t.Error("profile/elapsed missing")
	}
	// Reference results carry no profile.
	ref, _ := eng.Reference(`1`)
	if len(ref.Profile()) != 0 {
		t.Error("reference result should have no profile")
	}
}

func TestLoadXMarkAndDocumentStats(t *testing.T) {
	eng := New()
	eng.LoadXMark("auction.xml", 0.001)
	st, err := eng.DocumentStats("auction.xml")
	if err != nil || st.Nodes == 0 {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	if _, err := eng.DocumentStats("nope.xml"); err == nil {
		t.Error("expected unknown-document error")
	}
	res, err := eng.Query(`count(doc("auction.xml")/site/people/person)`)
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml == "0" {
		t.Error("no persons generated")
	}
	if len(eng.Documents()) != 1 {
		t.Error("document registry")
	}
}

func TestTimeoutOption(t *testing.T) {
	eng := New(WithTimeout(time.Nanosecond))
	eng.LoadXMark("auction.xml", 0.005)
	_, err := eng.Query(`for $p in doc("auction.xml")/site/people/person
		return count(doc("auction.xml")//keyword)`)
	if err == nil || !strings.Contains(err.Error(), "cutoff") {
		t.Errorf("expected cutoff, got %v", err)
	}
}

func TestErrorsSurface(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Query(`$nope`); err == nil {
		t.Error("compile error not surfaced")
	}
	if _, err := eng.Query(`doc("missing.xml")`); err == nil {
		t.Error("runtime error not surfaced")
	}
	if _, err := eng.Compile(`for $x in`); err == nil {
		t.Error("parse error not surfaced")
	}
	if err := eng.LoadDocumentString("bad.xml", `<a><b></a>`); err == nil {
		t.Error("document parse error not surfaced")
	}
}

func TestOptimizationToggles(t *testing.T) {
	eng := newTestEngine(t,
		WithOrdering(Unordered),
		WithOptimizations(Optimizations{ColumnAnalysis: true}))
	q, err := eng.Compile(`for $b in doc("t.xml")/a//b return count($b//c)`)
	if err != nil {
		t.Fatal(err)
	}
	before, after := q.PlanStats()
	if after.Operators >= before.Operators {
		t.Errorf("analysis did not shrink plan: %d -> %d", before.Operators, after.Operators)
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "1" {
		t.Errorf("result: %q", xml)
	}
}

func TestExternalVariables(t *testing.T) {
	eng := newTestEngine(t)
	res, err := eng.QueryWith(`declare variable $n external;
		declare variable $tag external;
		for $x in 1 to $n return concat($tag, string($x))`,
		map[string]any{"n": 3, "tag": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "v1 v2 v3" {
		t.Errorf("result: %q", xml)
	}
	// Sequences bind too.
	res, err = eng.QueryWith(`declare variable $xs external; sum($xs)`,
		map[string]any{"xs": []any{1, 2, 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "6.5" {
		t.Errorf("sum: %q", xml)
	}
	// Missing binding is a compile error.
	if _, err := eng.Query(`declare variable $missing external; $missing`); err == nil {
		t.Error("unbound external variable must fail")
	}
	// Initialized prolog variables need no binding.
	res, err = eng.Query(`declare variable $k := 6 * 7; $k`)
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "42" {
		t.Errorf("initialized variable: %q", xml)
	}
	// Unsupported Go types are rejected.
	if _, err := eng.QueryWith(`declare variable $x external; $x`,
		map[string]any{"x": struct{}{}}); err == nil {
		t.Error("unsupported binding type must fail")
	}
	// A []xdm.Item binding is adopted without copying (and a single Item
	// binds as a one-item sequence).
	res, err = eng.QueryWith(`declare variable $xs external; sum($xs)`,
		map[string]any{"xs": []xdm.Item{xdm.NewInt(10), xdm.NewInt(32)}})
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "42" {
		t.Errorf("item-slice binding: %q", xml)
	}
	res, err = eng.QueryWith(`declare variable $x external; $x + 1`,
		map[string]any{"x": xdm.NewInt(41)})
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "42" {
		t.Errorf("single-item binding: %q", xml)
	}
}

// TestLiteralTablesWithSeparatorBytesStayDistinct: the plan builder's
// intern key must be injective over literal contents. A key that joins
// fields with unescaped separators gives these two tables one key, and
// $b is silently replaced by $a.
func TestLiteralTablesWithSeparatorBytesStayDistinct(t *testing.T) {
	eng := newTestEngine(t)
	res, err := eng.QueryWith(`declare variable $a external; declare variable $b external; (count($a), count($b))`,
		map[string]any{"a": []string{"p.xs:string;/n2.xs:integer/sq"}, "b": []string{"p", "q"}})
	if err != nil {
		t.Fatal(err)
	}
	if xml, _ := res.XML(); xml != "1 2" {
		t.Errorf("(count($a), count($b)) = %q, want \"1 2\"", xml)
	}
}

func TestDocumentsSorted(t *testing.T) {
	eng := New()
	for _, name := range []string{"z.xml", "a.xml", "m.xml", "b.xml"} {
		if err := eng.LoadDocumentString(name, `<x/>`); err != nil {
			t.Fatal(err)
		}
	}
	got := eng.Documents()
	want := []string{"a.xml", "b.xml", "m.xml", "z.xml"}
	if len(got) != len(want) {
		t.Fatalf("documents: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("documents not sorted: %v", got)
		}
	}
}

func TestExternalVariableTypes(t *testing.T) {
	eng := newTestEngine(t)
	cases := []struct {
		name  string
		query string
		vars  map[string]any
		want  string
	}{
		{"int32", `declare variable $x external; $x + 1`,
			map[string]any{"x": int32(41)}, "42"},
		{"float32", `declare variable $x external; $x * 2`,
			map[string]any{"x": float32(1.5)}, "3"},
		{"string-slice", `declare variable $xs external; string-join($xs, "-")`,
			map[string]any{"xs": []string{"a", "b", "c"}}, "a-b-c"},
		{"int-slice", `declare variable $xs external; sum($xs)`,
			map[string]any{"xs": []int{1, 2, 3}}, "6"},
		{"empty-string-slice", `declare variable $xs external; count($xs)`,
			map[string]any{"xs": []string{}}, "0"},
		{"empty-int-slice", `declare variable $xs external; count($xs)`,
			map[string]any{"xs": []int{}}, "0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := eng.QueryWith(tc.query, tc.vars)
			if err != nil {
				t.Fatal(err)
			}
			if xml, _ := res.XML(); xml != tc.want {
				t.Errorf("result: %q, want %q", xml, tc.want)
			}
		})
	}
}

// TestExternalVariablesAcrossModes: prolog variable declarations survive
// an engine-level ordering override, so external bindings resolve the
// same way under every execution mode.
func TestExternalVariablesAcrossModes(t *testing.T) {
	const query = `declare variable $n external;
		declare variable $tag external;
		concat($tag, string(sum(for $i in 1 to $n return $i * count(doc("t.xml")//c))))`
	vars := map[string]any{"n": 3, "tag": "v"}
	modes := []struct {
		name string
		opts []Option
	}{
		{"ordered", []Option{WithOrdering(Ordered)}},
		{"unordered", []Option{WithOrdering(Unordered)}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			res, err := newTestEngine(t, m.opts...).QueryWith(query, vars)
			if err != nil {
				t.Fatal(err)
			}
			if xml, _ := res.XML(); xml != "v12" {
				t.Errorf("result: %q, want %q", xml, "v12")
			}
		})
	}
}

// TestConcurrentQueries exercises concurrent use of one Engine from many
// goroutines — mixed Query and compile-once/Execute-many — against shared
// documents. Run under -race in CI.
func TestConcurrentQueries(t *testing.T) {
	// The executor is serial; the subtest keeps the mode name it ran under.
	t.Run("serial", func(t *testing.T) {
		eng := New()
		if err := eng.LoadDocumentString("t.xml", `<a><b><c/><d/></b><c/></a>`); err != nil {
			t.Fatal(err)
		}
		eng.LoadXMark("auction.xml", 0.002)
		shared, err := eng.Compile(`count(doc("auction.xml")//keyword)`)
		if err != nil {
			t.Fatal(err)
		}
		want, err := shared.Execute()
		if err != nil {
			t.Fatal(err)
		}
		wantXML, _ := want.XML()

		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if g%2 == 0 {
						res, err := shared.Execute()
						if err != nil {
							errs <- err
							return
						}
						if xml, _ := res.XML(); xml != wantXML {
							errs <- fmt.Errorf("shared query: got %q, want %q", xml, wantXML)
							return
						}
					} else {
						res, err := eng.Query(`doc("t.xml")/a//(c|d)`)
						if err != nil {
							errs <- err
							return
						}
						if xml, _ := res.XML(); xml != "<c/><d/><c/>" {
							errs <- fmt.Errorf("per-goroutine query: %q", xml)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestConstructedNodesAreRoots: elements and attributes one constructor
// evaluation builds (one slab of fragments) are each the root of their own
// fragment — no parent, root() is the element itself — while their content
// keeps its parent, in the pipeline and the reference interpreter alike.
func TestConstructedNodesAreRoots(t *testing.T) {
	eng := New()
	q := `let $es := for $i in (1, 2, 3) return <e a="{$i}"><f/>t</e>
return (count($es/parent::node()), count(for $e in $es return root($e)/self::e),
        count($es/f/..), count($es/@a/..), count(for $a in $es/@a return root($a)))`
	for name, run := range map[string]func(string) (*Result, error){"pipeline": eng.Query, "reference": eng.Reference} {
		res, err := run(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := res.XML(); err != nil || got != "0 3 3 3 3" {
			t.Errorf("%s: %q, %v; want \"0 3 3 3 3\"", name, got, err)
		}
	}
}
