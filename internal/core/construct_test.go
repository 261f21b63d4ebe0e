package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xquery"
)

// TestConstructTemplates: a tree of directly nested constructors is built
// by one template operator, and what it builds behaves like the trees the
// reference interpreter builds one constructor at a time — node identity
// and parentage inside the tree, empty templates and slots, and the
// attribute-after-content rule, which is tracked per open element across
// its slots and static children. Every row runs through the oracle and
// the pipeline in both ordering modes.
func TestConstructTemplates(t *testing.T) {
	store, docs := buildStoreWith(t, map[string]string{"f.xml": fuzzDoc})
	ordered, unordered := xquery.Ordered, xquery.Unordered
	modes := map[string]Config{"ordered": {ForceOrdering: &ordered}, "unordered": {ForceOrdering: &unordered}}
	for _, c := range []struct{ q, want string }{
		{`let $e := <a><b><c/></b></a> return ($e/b/c/../.. is $e, root($e/b/c) is $e, count($e//node()))`, "true true 2"},
		{`let $e := <a><b>{(doc("f.xml")//w)[1]}</b></a> return ($e/b/w/.. is $e/b, $e/b/w is (doc("f.xml")//w)[1], count($e//w))`, "true false 1"},
		{`<a/>`, "<a/>"},
		{`<a><b/><c></c></a>`, "<a><b/><c/></a>"},
		{`<a x="">{()}<b y="{()}">{()}</b>{()}</a>`, `<a x=""><b y=""/></a>`},
		{`<a x="{1, 2}{3}-{()}">{"p", 4}<b/>{5}{6}t{7}</a>`, `<a x="1 23-">p 4<b/>56t7</a>`},
		{`<a>{(doc("f.xml")//e/@k)[1]}<b/></a>`, `<a k="1"><b/></a>`},
		{`<a z="0">{(doc("f.xml")//e/@k)[1]}{(doc("f.xml")//e/@g)[1]}<b/></a>`, `<a z="0" k="1" g="a"><b/></a>`},
		{`<a>{"", (doc("f.xml")//e/@k)[1]}</a>`, `<a k="1"/>`},
		{`<a><b>{(doc("f.xml")//e/@k)[1]}</b>x</a>`, `<a><b k="1"/>x</a>`},
		{`<a><b x="1"/>{(doc("f.xml")//e/@k)[1]}</a>`, "!attribute k after content of <a>"},
		{`<a><b/>{(doc("f.xml")//e/@k)[1]}</a>`, "!attribute k after content of <a>"},
		{`<a>t{(doc("f.xml")//e/@k)[1]}</a>`, "!attribute k after content of <a>"},
		{`<a>{1, (doc("f.xml")//e/@k)[1]}</a>`, "!attribute k after content of <a>"},
		{`<a><b>{<c/>, (doc("f.xml")//e/@k)[1]}</b></a>`, "!attribute k after content of <b>"},
		{`for $e in doc("f.xml")/r/e return <o n="{$e/@k}">{$e/@g}<p>{$e/v/text()}</p></o>`,
			`<o n="1" g="a"><p>1020</p></o><o n="2" g="b"><p>30</p></o><o n="3" g="a"><p>4050</p></o><o n="4"><p/></o>`},
	} {
		check := func(who, got string, err error) {
			if msg, isErr := strings.CutPrefix(c.want, "!"); isErr {
				if err == nil || !strings.Contains(err.Error(), msg) {
					t.Errorf("%s: %s = %q, %v; want an error naming %q", who, c.q, got, err, msg)
				}
			} else if err != nil || got != c.want {
				t.Errorf("%s: %s = %q, %v; want %q", who, c.q, got, err, c.want)
			}
		}
		got, _, err := tryInterp(store, docs, c.q)
		check("oracle", got, err)
		for name, cfg := range modes {
			got, _, err := tryPipeline(store, docs, c.q, cfg)
			check("pipeline, "+name, got, err)
		}
	}
}

// FuzzConstruct is the template constructor's differential fuzz target: a
// seed draws a tree of directly nested constructors — nesting depth 1 to
// 20, past the slab builder's 16-entry open stack; literal, enclosed and
// mixed attribute values; literal text; and enclosed expressions yielding
// atomics, (), document elements, text nodes, document attributes,
// sequences with constructor members, or a nested FLWOR of constructors —
// and the pipeline in ordered mode must serialize it byte for byte as the
// reference interpreter does, or fail where it fails.
func FuzzConstruct(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144} {
		f.Add(seed)
	}
	ordered := xquery.Ordered
	f.Fuzz(func(t *testing.T, seed int64) {
		store, docs := buildStoreWith(t, map[string]string{"f.xml": fuzzDoc})
		q := newConsGen(seed).query()
		got, _, err := tryPipeline(store, docs, q, Config{ForceOrdering: &ordered})
		want, _, refErr := tryInterp(store, docs, q)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("%s:\n pipeline error %v\n oracle error   %v", q, err, refErr)
		case got != want:
			t.Fatalf("%s:\n pipeline %q\n oracle   %q", q, got, want)
		}
	})
}

// consGen draws constructor trees over fuzzDoc. With a loop, the tree
// sits in a for over the document's e elements and its enclosed
// expressions read $e, so the constructor builds one tree per row.
type consGen struct {
	r        *rand.Rand
	maxDepth int
	loop     bool
}

func newConsGen(seed int64) *consGen {
	r := rand.New(rand.NewSource(seed))
	return &consGen{r: r, maxDepth: 1 + r.Intn(20), loop: r.Intn(2) == 0}
}

func (g *consGen) query() string {
	if g.loop {
		return `for $e in doc("f.xml")/r/e return ` + g.elem(1)
	}
	return g.elem(1)
}

func (g *consGen) pick(opts ...string) string { return opts[g.r.Intn(len(opts))] }

// ctx is a node sequence of the document: the loop's e, or all of them.
func (g *consGen) ctx() string {
	if g.loop && g.r.Intn(3) > 0 {
		return "$e"
	}
	return `doc("f.xml")//e`
}

// elem draws an element at depth d whose subtree reaches maxDepth.
func (g *consGen) elem(d int) string {
	name := g.pick("a", "b", "c", "v")
	var sb strings.Builder
	sb.WriteString("<" + name)
	for i, n := range []string{"x", "y"}[:g.r.Intn(3)] {
		fmt.Fprintf(&sb, ` %s="%s"`, n, g.attrValue(i))
	}
	sb.WriteString(">")
	items := g.r.Intn(4)
	nest := -1 // the content item that carries the tree deeper
	if d < g.maxDepth {
		nest = g.r.Intn(items + 1)
		items++
	}
	for i := range items {
		if i == nest {
			if g.r.Intn(4) == 0 { // a member of a sequence is directly nested too
				sb.WriteString("{" + g.content() + ", " + g.elem(d+1) + "}")
			} else {
				sb.WriteString(g.elem(d + 1))
			}
			continue
		}
		switch {
		case g.r.Intn(25) == 0 || i == 0 && g.r.Intn(3) == 0:
			// Document attributes: adopted before any content, an error
			// after it.
			sb.WriteString("{" + g.pick("("+g.ctx()+"/@k)[1]", g.ctx()+"/@g") + "}")
		case g.r.Intn(3) == 0:
			sb.WriteString(g.pick("t", "u1", "v w"))
		default:
			sb.WriteString("{" + g.content() + "}")
		}
	}
	sb.WriteString("</" + name + ">")
	return sb.String()
}

// attrValue draws a literal, enclosed or mixed attribute value.
func (g *consGen) attrValue(i int) string {
	lit := fmt.Sprintf("l%d", i)
	expr := "{" + g.pick(g.ctx()+"/@k", "1, 2", "()", g.ctx()+"/v", `"s"`) + "}"
	switch g.r.Intn(3) {
	case 0:
		return lit
	case 1:
		return expr
	default:
		return lit + expr + "-" + expr
	}
}

// content draws an enclosed expression.
func (g *consGen) content() string {
	c := g.ctx()
	return g.pick(
		"1", `"s", 2`, "()", "3.5, true()",
		c+"/v", c+"/w/text()", c+"/v/text(), 7",
		"<z/>, 1, 2, <y>{3}</y>",
		"for $x in "+c+` return <o k="{$x/@k}">{$x/v}</o>`,
	)
}
