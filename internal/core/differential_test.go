package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// The differential suite is the repository's central correctness gate:
// for a corpus of queries, the compiled relational pipeline must agree
// with the reference tree-walking interpreter.
//
//   - baseline (indifference off) and indifference-on under ordering mode
//     ordered: byte-identical serialized results (exceptions: queries
//     whose result order is implementation-dependent even under ordered
//     semantics, e.g. fn:distinct-values — compared as sorted bags);
//   - indifference-on under ordering mode unordered: results compared as
//     sorted bags of serialized items (any permutation is admissible).

type diffCase struct {
	name  string
	query string
	// bagOnly marks queries whose ordered-mode result order is
	// implementation-dependent (distinct-values).
	bagOnly bool
}

var diffDocs = map[string]string{
	"t.xml": `<a><b><c/><d/></b><c/></a>`,
	"auction-mini.xml": `<site>
	  <regions>
	    <europe>
	      <item id="item0"><location>Germany</location><quantity>1</quantity><name>gold brooch</name>
	        <description><text>vintage gold piece</text></description>
	        <incategory category="category0"/></item>
	      <item id="item1"><location>France</location><quantity>2</quantity><name>silver ring</name>
	        <description><parlist><listitem><text>plain</text></listitem></parlist></description>
	        <incategory category="category1"/></item>
	    </europe>
	    <namerica>
	      <item id="item2"><location>United States</location><quantity>5</quantity><name>oak table</name>
	        <description><text>carved oak with gold inlay</text></description>
	        <incategory category="category0"/></item>
	    </namerica>
	  </regions>
	  <people>
	    <person id="person0"><name>Ana Silva</name><emailaddress>a@x</emailaddress>
	      <homepage>http://x/~ana</homepage>
	      <profile income="52000.00"><interest category="category0"/><age>34</age></profile></person>
	    <person id="person1"><name>Ben Kumar</name><emailaddress>b@x</emailaddress>
	      <profile income="9000.00"><interest category="category1"/></profile></person>
	    <person id="person2"><name>Cleo Chen</name><emailaddress>c@x</emailaddress></person>
	  </people>
	  <open_auctions>
	    <open_auction id="open_auction0">
	      <initial>5.50</initial>
	      <bidder><date>01/02/1999</date><personref person="person0"/><increase>3.00</increase></bidder>
	      <bidder><date>02/02/1999</date><personref person="person1"/><increase>7.50</increase></bidder>
	      <current>16.00</current>
	      <itemref item="item0"/><seller person="person1"/><quantity>1</quantity></open_auction>
	    <open_auction id="open_auction1">
	      <initial>120.00</initial>
	      <current>120.00</current>
	      <itemref item="item2"/><seller person="person0"/><quantity>2</quantity></open_auction>
	  </open_auctions>
	  <closed_auctions>
	    <closed_auction><seller person="person0"/><buyer person="person1"/>
	      <itemref item="item1"/><price>42.00</price><quantity>1</quantity></closed_auction>
	    <closed_auction><seller person="person2"/><buyer person="person0"/>
	      <itemref item="item0"/><price>12.50</price><quantity>1</quantity></closed_auction>
	  </closed_auctions>
	</site>`,
}

const bindT = `let $t := doc("t.xml")/a return `
const bindA = `let $a := doc("auction-mini.xml")/site return `

var diffCases = []diffCase{
	{name: "literal-int", query: `42`},
	{name: "literal-seq", query: `(1, 2.5, "x", true())`},
	{name: "empty-seq", query: `()`},
	{name: "arith", query: `(1 + 2 * 3, 7 idiv 2, 7 mod 2, 7 div 2, -(4 - 6))`},
	{name: "paper-expr1", query: bindT + `$t//(c|d)`},
	{name: "paper-expr2", query: bindT + `(unordered { $t//c }, unordered { $t//d })`},
	{name: "paper-expr3", query: bindT + `(let $b := $t//b, $d := $t//d, $e := <e>{ $d, $b }</e>
		return ($b << $d, $e/b << $e/d))`},
	{name: "paper-expr4", query: `for $x at $p in ("a","b","c") return <e pos="{ $p }">{ $x }</e>`},
	{name: "paper-expr5", query: `for $x in (1,2) return ($x, $x * 10)`},
	{name: "paper-expr6", query: `for $x in (1,2) for $y in (10,20) return <a>{ $x, $y }</a>`},
	{name: "let-unfold", query: bindT + `(let $c2 := ($t//c)[2] return unordered { $c2 })`},
	{name: "steps-child", query: bindA + `$a/people/person/name`},
	{name: "steps-desc", query: bindA + `$a//item/name/text()`},
	{name: "steps-attr", query: bindA + `data($a/people/person/@id)`},
	{name: "steps-wild", query: bindA + `$a/regions/*/item/name`},
	{name: "steps-parent", query: bindA + `data($a//initial/../@id)`},
	{name: "steps-self", query: bindA + `data($a//item/self::item/@id)`},
	{name: "pred-value", query: bindA + `$a/people/person[@id = "person0"]/name/text()`},
	{name: "pred-pos", query: bindA + `$a/open_auctions/open_auction/bidder[1]/increase/text()`},
	{name: "pred-last", query: bindA + `$a/open_auctions/open_auction/bidder[last()]/increase/text()`},
	{name: "pred-position", query: bindA + `data($a/people/person[position() >= 2]/@id)`},
	{name: "pred-exists", query: bindA + `$a/people/person[profile/@income]/name`},
	{name: "pred-nested", query: bindA + `$a/people/person[profile[@income > 10000]]/name`},
	{name: "pred-filter", query: `(1, 2, 3, 4)[. > 2]`},
	{name: "flwor-basic", query: bindA + `for $p in $a/people/person return $p/name/text()`},
	{name: "flwor-where", query: bindA + `for $p in $a/people/person
		where $p/profile/@income > 10000 return $p/name/text()`},
	{name: "flwor-let", query: bindA + `for $p in $a/people/person
		let $n := $p/name return <x>{ $n/text() }</x>`},
	{name: "flwor-nested", query: bindA + `for $oa in $a/open_auctions/open_auction
		for $b in $oa/bidder return <bid auction="{ $oa/@id }">{ $b/increase/text() }</bid>`},
	{name: "flwor-orderby", query: bindA + `for $i in $a//item order by $i/location return $i/name/text()`},
	{name: "flwor-orderby-desc", query: bindA + `for $p in $a/people/person
		order by $p/profile/@income descending empty greatest return string($p/@id)`, bagOnly: false},
	{name: "flwor-orderby-two", query: `for $x in (3, 1, 2, 11) order by string-length(string($x)), $x descending return $x`},
	{name: "flwor-at", query: bindA + `for $p at $i in $a/people/person return concat(string($i), ":", $p/@id)`},
	{name: "quant-some", query: bindA + `for $oa in $a/open_auctions/open_auction
		where some $b in $oa/bidder satisfies $b/increase > 5 return string($oa/@id)`},
	{name: "quant-every", query: `every $x in (1, 2, 3) satisfies $x > 0`},
	{name: "quant-two-vars", query: `some $x in (1,2), $y in (10,20) satisfies $x * 10 = $y`},
	{name: "gencmp-existential", query: `((1, 2) = (2, 3), (1, 2) = (3, 4), (1, 5) < (3), () = (1))`},
	{name: "gencmp-untyped", query: bindA + `$a/people/person/profile/@income > 50000`},
	{name: "valuecmp", query: `(1 eq 1, 2 lt 1, "a" ne "b")`},
	{name: "nodecmp", query: bindT + `($t//b << ($t//c)[2], ($t//c)[1] is ($t//c)[1])`},
	{name: "setops", query: bindT + `(count($t//c | $t//d), count($t//* intersect $t//c), count($t//* except $t//c))`},
	{name: "union-order", query: bindT + `for $n in ($t//d | $t//c) return name($n)`},
	{name: "if-else", query: bindA + `for $p in $a/people/person
		return if ($p/homepage) then "web" else "none"`},
	{name: "logic", query: bindA + `for $p in $a/people/person
		where $p/profile/@income > 10000 and exists($p/homepage) return string($p/@id)`},
	{name: "count", query: bindA + `count($a//item)`},
	{name: "count-empty", query: bindA + `count($a/people/person[@id="nobody"])`},
	{name: "count-nested", query: bindA + `for $p in $a/people/person
		return <n>{ count($p/profile/interest) }</n>`},
	{name: "aggregates", query: `(sum((1, 2, 3)), sum(()), avg((1, 2, 3, 4)), max((3, 1, 2)), min((3, 1, 2)))`},
	{name: "agg-untyped", query: bindA + `sum($a/closed_auctions/closed_auction/price)`},
	{name: "agg-max-string", query: `max(("a", "c", "b"))`},
	{name: "empty-exists", query: bindA + `(empty($a/people/person), exists($a/nosuch))`},
	{name: "boolean-not", query: `(boolean(""), boolean("x"), not(0), boolean((1) = (1, 2)))`},
	{name: "string-fns", query: `(string(42), string(()), string-length("hello"),
		contains("gold ring", "gold"), starts-with("person0", "person"), concat("a", "b", "c"))`},
	{name: "string-of-node", query: bindA + `string(($a//item)[1]/name)`},
	{name: "data-number", query: `(number("4.5") * 2, count(data((1, "x"))))`},
	{name: "distinct-values", query: bindA + `distinct-values($a//incategory/@category)`, bagOnly: true},
	{name: "distinct-count", query: bindA + `count(distinct-values($a//incategory/@category))`},
	{name: "cardinality", query: bindA + `(zero-or-one($a/nosuch), string(exactly-one(($a//item)[1])/@id))`},
	{name: "name-fns", query: bindT + `for $n in $t//* return name($n)`},
	{name: "range", query: `(1 to 4, count(2 to 1), sum(1 to 10))`},
	{name: "constructor-nested", query: `<r a="1" b="x{ 1 + 1 }y"><inner>{ "t" }</inner>text</r>`},
	{name: "constructor-copy", query: bindT + `(let $e := <e>{ $t//b }</e> return count($e//c))`},
	{name: "constructor-attrs-from-content", query: bindA + `for $p in $a/people/person
		return <p>{ $p/@id }</p>`},
	{name: "constructor-empty", query: `<empty/>`},
	{name: "constructor-spacing", query: `<e>{ 1, 2, <x/>, 3 }</e>`},
	{name: "user-function", query: `declare function local:convert($v as xs:decimal?) as xs:decimal? { 2.20371 * $v };
		for $i in (10, 20) return local:convert($i)`},
	{name: "unordered-fn", query: bindT + `count(unordered($t//(c|d)))`},
	{name: "ordered-expr", query: bindT + `ordered { $t//c }`},
	{name: "mixed-doc-order", query: bindT + `$t/b/(c|d)`},
	{name: "deep-where-join", query: bindA + `for $p in $a/people/person
		let $l := for $i in $a/open_auctions/open_auction/initial
		          where $p/profile/@income > 5000 * $i
		          return $i
		return <items name="{ $p/name }">{ count($l) }</items>`},
	{name: "q20-style", query: bindA + `<result>
		<preferred>{ count($a/people/person/profile[@income >= 50000]) }</preferred>
		<standard>{ count($a/people/person/profile[@income < 50000 and @income >= 10000]) }</standard>
		<na>{ count(for $p in $a/people/person where empty($p/profile/@income) return $p) }</na>
		</result>`},
	{name: "q4-style", query: bindA + `for $oa in $a/open_auctions/open_auction
		where some $pr1 in $oa/bidder/personref[@person = "person0"],
		      $pr2 in $oa/bidder/personref[@person = "person1"]
		      satisfies $pr1 << $pr2
		return <history>{ $oa/initial/text() }</history>`},
	{name: "where-empty-path", query: bindA + `for $p in $a/people/person
		where empty($p/homepage) return string($p/@id)`},
	{name: "string-fns-2", query: `(substring("auction", 2), substring("auction", 2, 3),
		substring("gold", 0), substring("gold", 1.4, 1.8),
		normalize-space("  a   b  "), upper-case("Gold"), lower-case("Gold"),
		ends-with("person0", "0"))`},
	{name: "rounding", query: `(round(2.5), round(-2.5), floor(2.7), ceiling(2.1),
		abs(-3), abs(-3.5), round(7))`},
	{name: "string-join", query: bindA + `string-join(for $p in $a/people/person
		return string($p/name), ", ")`},
	{name: "string-join-order", query: `string-join(("c", "a", "b"), "-")`},
	{name: "substring-of-node", query: bindA + `substring(string(($a//item)[1]/name), 1, 4)`},
	// Per-context positional predicates (XPath predicates bind to the
	// step, not to the merged sequence) — regression tests for the bug
	// the differential fuzzer found.
	{name: "percontext-last", query: bindA + `$a//bidder[last()]/increase/text()`},
	{name: "percontext-first", query: bindA + `data($a//person/profile/interest[1]/@category)`},
	{name: "percontext-pos2", query: bindT + `$t//b/c[1]`},
	{name: "percontext-mixed", query: bindA + `$a//open_auction/bidder[increase > 1][1]/date/text()`},
	{name: "percontext-vs-filter", query: bindT + `(count($t//c[1]), count(($t//c)[1]))`},
	// Mixed-kind sequences: no typed column holds them, so these run
	// through the []Item fallback of xdm.Column and its kernels.
	{name: "mixed-for", query: `for $x in (1, "a", 2.5, <x/>) return $x`},
	{name: "mixed-for-nested", query: `for $x in (1, "a", 2.5), $y in (<x/>, "b") return ($y, $x)`},
	{name: "mixed-let-count", query: `let $s := (1, "a", 2.5, <x/>) return (count($s), $s[2], $s[last()])`},
	{name: "mixed-orderby-key", query: `for $x in (1, "b", 2.5, <x>a</x>) order by string($x) return $x`},
	{name: "mixed-orderby-numeric", query: `for $x in (3, 1.5, 2, 0.25) order by $x descending return $x`},
	{name: "mixed-distinct-values", query: `distinct-values((1, "a", 2.5, 1, "a", 1.0, 2.5))`, bagOnly: true},
	{name: "mixed-gencmp", query: `((1, 2.5, 3) = 2.5, (1, 2.5, 3) > 2.75, ("a", "b") = "b")`},
	{name: "mixed-where-numeric", query: `for $x in (1, 2.5, 3, 0.5) where $x > 1.5 return $x * 2`},
	{name: "mixed-aggregates", query: `(sum((1, 2.5, 3)), max((1, 2.5)), min((3, 0.5)), avg((1, 2.5)))`},
	{name: "mixed-string-of", query: `for $x in (1, "a", 2.5, <x>n</x>) return concat("[", string($x), "]")`},
	{name: "mixed-constructor", query: `<e>{ for $x in (1, "a", <x/>, 2.5) return $x }</e>`},
	// Scalars through the one xdm library: integers exact beyond 2⁵³,
	// XML whitespace only, untypedAtomic arguments cast to xs:double.
	{name: "scalar-exact-integers", query: `(9007199254740993 = 9007199254740992, 9007199254740993 > 9007199254740992,
		sum((9007199254740993, 0)), max((9007199254740992, 9007199254740993)),
		for $x in (9007199254740993, 9007199254740992) order by $x return $x)`},
	{name: "scalar-whitespace", query: `(normalize-space("&#160;a&#160; b "), string-length(string(<a>&#160;</a>)))`},
	{name: "scalar-untyped-args", query: bindA + `for $p in $a/people/person/profile
		return (round($p/@income div 7), abs(-$p/@income), sum(($p/@income, 1)), max(($p/@income, 1)))`},
}

func buildStore(t *testing.T) (*xmltree.Store, map[string][]uint32) {
	t.Helper()
	store := xmltree.NewStore()
	docs := make(map[string][]uint32)
	for name, src := range diffDocs {
		f, err := xmltree.ParseString(src, name, xmltree.ParseOptions{})
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		docs[name] = []uint32{store.Add(f)}
	}
	return store, docs
}

// bagOf canonicalizes a result as a sorted multiset of per-item
// serializations.
func bagOf(t *testing.T, store *xmltree.Store, items []interface{ Serialize() (string, error) }) []string {
	t.Helper()
	out := make([]string, len(items))
	for i, it := range items {
		s, err := it.Serialize()
		if err != nil {
			t.Fatalf("serialize item: %v", err)
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func runInterp(t *testing.T, store *xmltree.Store, docs map[string][]uint32, q string) (string, []string) {
	t.Helper()
	ip := interp.New(store, docs)
	res, err := ip.EvalString(q)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	s, err := res.SerializeXML()
	if err != nil {
		t.Fatalf("interp serialize: %v", err)
	}
	bag := make([]string, len(res.Items))
	for i, it := range res.Items {
		one, err := xmltree.SerializeItems(res.Store, res.Items[i:i+1])
		if err != nil {
			t.Fatalf("interp item serialize: %v", err)
		}
		bag[i] = one
		_ = it
	}
	sort.Strings(bag)
	return s, bag
}

func runPipeline(t *testing.T, store *xmltree.Store, docs map[string][]uint32, q string, cfg Config) (string, []string) {
	t.Helper()
	p, err := Prepare(q, cfg)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	res, err := p.Run(store, docs)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, p.Explain())
	}
	s, err := res.SerializeXML()
	if err != nil {
		t.Fatalf("pipeline serialize: %v", err)
	}
	bag := make([]string, len(res.Items))
	for i := range res.Items {
		one, err := xmltree.SerializeItems(res.Store, res.Items[i:i+1])
		if err != nil {
			t.Fatalf("pipeline item serialize: %v", err)
		}
		bag[i] = one
	}
	sort.Strings(bag)
	return s, bag
}

func bagsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDifferentialBaseline(t *testing.T) {
	store, docs := buildStore(t)
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantBag := runInterp(t, store, docs, tc.query)
			got, gotBag := runPipeline(t, store, docs, tc.query, BaselineConfig())
			if tc.bagOnly {
				if !bagsEqual(wantBag, gotBag) {
					t.Errorf("bag mismatch:\n got %v\nwant %v", gotBag, wantBag)
				}
				return
			}
			if got != want {
				t.Errorf("result mismatch:\n got %q\nwant %q", got, want)
			}
		})
	}
}

func TestDifferentialIndifferenceOrdered(t *testing.T) {
	store, docs := buildStore(t)
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantBag := runInterp(t, store, docs, tc.query)
			got, gotBag := runPipeline(t, store, docs, tc.query, DefaultConfig())
			if tc.bagOnly {
				if !bagsEqual(wantBag, gotBag) {
					t.Errorf("bag mismatch:\n got %v\nwant %v", gotBag, wantBag)
				}
				return
			}
			if got != want {
				t.Errorf("result mismatch:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestDifferentialParallel runs the whole corpus with Parallelism = 4.
// Config.Parallelism is an inert facade (pinned by benchmark/; it goes
// with ROADMAP 1(f), and so do the "parallel" test IDs here and in the
// other core differential and lifecycle tests): it must change nothing,
// so the results stay byte-identical to the same config without it — and
// agree with the interpreter — under both the default and the baseline
// compiler, in ordered mode.
func TestDifferentialParallel(t *testing.T) {
	store, docs := buildStore(t)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"indifference", DefaultConfig()},
		{"baseline", BaselineConfig()},
	}
	for _, cc := range configs {
		pcfg := cc.cfg
		pcfg.Parallelism = 4
		for _, tc := range diffCases {
			t.Run(cc.name+"/"+tc.name, func(t *testing.T) {
				serial, _ := runPipeline(t, store, docs, tc.query, cc.cfg)
				par, parBag := runPipeline(t, store, docs, tc.query, pcfg)
				if par != serial {
					t.Errorf("Parallelism = 4 changed the result:\n got %q\nwant %q", par, serial)
				}
				want, wantBag := runInterp(t, store, docs, tc.query)
				if tc.bagOnly {
					if !bagsEqual(wantBag, parBag) {
						t.Errorf("bag mismatch vs interpreter:\n got %v\nwant %v", parBag, wantBag)
					}
					return
				}
				if par != want {
					t.Errorf("mismatch vs interpreter:\n got %q\nwant %q", par, want)
				}
			})
		}
	}
}

// TestDifferentialIndifferenceUnordered verifies that under ordering mode
// unordered the pipeline returns a permutation-equivalent result: the same
// multiset of items. (Element content order inside constructed nodes is
// still covered because each item's serialization includes its content.)
func TestDifferentialIndifferenceUnordered(t *testing.T) {
	store, docs := buildStore(t)
	unordered := xquery.Unordered
	cfg := DefaultConfig()
	cfg.ForceOrdering = &unordered
	for _, tc := range diffCases {
		if strings.Contains(tc.query, "at $") {
			// Positional variables under unordered mode bind positions of
			// an arbitrary realized order — values legitimately differ
			// from the interpreter's.
			continue
		}
		if strings.Contains(tc.name, "pred-pos") || strings.Contains(tc.name, "pred-last") ||
			strings.Contains(tc.name, "pred-position") || strings.Contains(tc.name, "let-unfold") {
			// Positional predicates select from an arbitrary order under
			// ordering mode unordered (§2.2's let-unfolding discussion).
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			_, wantBag := runInterp(t, store, docs, tc.query)
			_, gotBag := runPipeline(t, store, docs, tc.query, cfg)
			if !bagsEqual(wantBag, gotBag) {
				t.Errorf("bag mismatch:\n got %v\nwant %v", gotBag, wantBag)
			}
		})
	}
}
