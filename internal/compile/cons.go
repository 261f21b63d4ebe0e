package compile

import (
	"repro/internal/algebra"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// stringValue compiles the fn:string coercion of an expression: atomized
// singleton cast to xs:string, with "" for the empty sequence. Result
// shape: iter|item, complete over the loop.
func (c *compiler) stringValue(e xquery.Expr, sc *frame) *algebra.Node {
	a := c.atomized(c.guardCard(c.compile(e, sc), "string coercion"))
	m := c.b.Map1(a, algebra.UnString, "sv", "item")
	val := c.b.Project(m,
		algebra.ColPair{New: "iter", Old: "iter"},
		algebra.ColPair{New: "item", Old: "sv"})
	return c.fillDefault(val, sc.loop, xdm.NewString(""))
}

// compileElemCons compiles a direct element constructor, together with
// every constructor directly nested in it, into one template constructor:
// the nested ones share its loop, so one operator builds the whole tree
// per iteration, each node once. Element construction is where sequence
// order establishes document order (interaction 2 of the paper) — each
// slot's pos column is genuinely consumed here, so column dependency
// analysis keeps the content order bookkeeping alive in every ordering
// mode (Figure 3 keeps the "elem cons." arrow).
func (c *compiler) compileElemCons(e *xquery.ElemCons, sc *frame) *algebra.Node {
	t := consTmpl{c: c, sc: sc}
	t.elem(e)
	elem := algebra.WithOrigin(c.b.Elem(t.tmpl, sc.loop, t.slots...), "element construction")
	return c.withPos1(elem)
}

// consTmpl accumulates the template of one tree of directly nested
// constructors and its slots: the iter|pos|item tables of its enclosed
// expressions, in content and in attribute values alike, compiled under
// the tree's one loop.
type consTmpl struct {
	c     *compiler
	sc    *frame
	tmpl  []algebra.Tmpl
	slots []*algebra.Node
}

func (t *consTmpl) elem(e *xquery.ElemCons) {
	t.add(algebra.TElem, e.Name, nil)
	for _, a := range e.Attrs {
		t.add(algebra.TAttr, a.Name, nil)
		for _, p := range a.Parts {
			t.add(algebra.TValue, p.Literal, p.Expr)
		}
	}
	for _, ce := range e.Content {
		t.content(ce)
	}
	t.add(algebra.TEnd, "", nil)
}

// content adds one content item: a nested constructor joins the
// template, literal text is static, and an enclosed expression becomes a
// slot. A sequence with constructor members splits into them and the
// runs of other members between them, each run still one enclosed
// expression (its atomic values join with spaces).
func (t *consTmpl) content(ce xquery.Expr) {
	switch ce := ce.(type) {
	case *xquery.ElemCons:
		t.elem(ce)
	case *xquery.CharContent:
		t.add(algebra.TContent, ce.Text, nil)
	case *xquery.Sequence:
		var run []xquery.Expr
		flush := func() {
			switch len(run) {
			case 0:
			case 1:
				t.add(algebra.TContent, "", run[0])
			default:
				t.add(algebra.TContent, "", &xquery.Sequence{Items: run})
			}
			run = nil
		}
		for _, it := range ce.Items {
			if e, ok := it.(*xquery.ElemCons); ok {
				flush()
				t.elem(e)
			} else {
				run = append(run, it)
			}
		}
		flush()
	default:
		t.add(algebra.TContent, "", ce)
	}
}

// add appends one instruction; a non-nil e becomes its slot.
func (t *consTmpl) add(kind algebra.TmplKind, text string, e xquery.Expr) {
	in := algebra.Tmpl{Kind: kind, Text: text}
	if e != nil {
		t.slots = append(t.slots, t.c.b.Keep(t.c.compile(e, t.sc), "iter", "pos", "item"))
		in.Slot = len(t.slots)
	}
	t.tmpl = append(t.tmpl, in)
}
