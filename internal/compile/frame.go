package compile

import (
	"repro/internal/algebra"
	"repro/internal/xquery"
)

// frame is one level of the iteration-scope chain. Every for clause,
// quantifier binding, where restriction, if branch and boolean predicate
// pushes a frame; let clauses push a map-less frame (same loop, extra
// variables).
//
// Frames are the hook for loop-invariant hoisting, this compiler's
// rendition of the "evaluated once only" property the paper attributes to
// Pathfinder's code generator ([9], visible in Table 2 where path
// evaluation accounts for <1 %): an expression whose free variables are
// all bound in an ancestor frame is compiled against that ancestor's loop
// — once — and its table is mapped into the current loop through the
// frames' map relations (one join per for-nesting level, the "mapping
// joins" of Table 2).
type frame struct {
	parent *frame
	// fromParent maps parent iterations (outer) to this frame's
	// iterations (inner); nil for map-less frames (let) and the root.
	fromParent *algebra.Node
	loop       *algebra.Node
	vars       map[string]*algebra.Node
	// srcs records source-row provenance for for-variables whose binding
	// sequence was hoisted: expressions over only that variable can be
	// evaluated once per *source row* instead of once per iteration —
	// the key ingredient of value-join recognition (Table 2's "join").
	srcs  map[string]*srcInfo
	depth int
}

// srcInfo links a for-variable to the rows of its hoisted binding
// sequence.
type srcInfo struct {
	// srcFrame iterates over the source rows (loop = src ids); the
	// for-variable is bound in it.
	srcFrame *frame
	// forFrame is the frame the for clause created (where the variable's
	// per-iteration binding lives).
	forFrame *frame
	// srcMap relates forFrame iterations to source rows: cols fiter, src.
	srcMap *algebra.Node
}

// lookupSrc finds source provenance for a variable, honouring shadowing.
func (f *frame) lookupSrc(name string) *srcInfo {
	for fr := f; fr != nil; fr = fr.parent {
		if _, ok := fr.vars[name]; ok {
			if fr.srcs != nil {
				return fr.srcs[name]
			}
			return nil
		}
	}
	return nil
}

// rootFrame builds the outermost frame over the given loop.
func rootFrame(loop *algebra.Node) *frame {
	return &frame{loop: loop, vars: map[string]*algebra.Node{}}
}

// child pushes a frame with a new loop reached through map m.
func (f *frame) child(m, loop *algebra.Node) *frame {
	return &frame{parent: f, fromParent: m, loop: loop, vars: map[string]*algebra.Node{}, depth: f.depth + 1}
}

// withVar pushes a map-less frame binding one variable in the same loop.
func (f *frame) withVar(name string, v *algebra.Node) *frame {
	return &frame{parent: f, loop: f.loop, vars: map[string]*algebra.Node{name: v}, depth: f.depth + 1}
}

// bind adds a variable to this frame (used right after frame creation,
// before the frame is shared).
func (f *frame) bind(name string, v *algebra.Node) { f.vars[name] = v }

// lookup finds the frame and table binding a variable.
func (f *frame) lookup(name string) (*frame, *algebra.Node) {
	for fr := f; fr != nil; fr = fr.parent {
		if v, ok := fr.vars[name]; ok {
			return fr, v
		}
	}
	return nil, nil
}

// hoistFrame returns the shallowest frame at which e can be compiled: the
// deepest frame binding any of e's free variables (the root frame for
// closed expressions). Expressions containing node constructors are never
// hoisted — constructors create one node per iteration, so their
// evaluation frequency is observable.
func (c *compiler) hoistFrame(e xquery.Expr, f *frame) *frame {
	if c.containsConstructor(e) {
		return f
	}
	target := f
	for fr := f; fr != nil; fr = fr.parent {
		target = fr
	}
	deepest := target // root
	for name := range c.freeVars(e) {
		fr, _ := f.lookup(name)
		if fr == nil {
			return f // unbound: compile in place so the error surfaces
		}
		if fr.depth > deepest.depth {
			deepest = fr
		}
	}
	return deepest
}

// srcHoist decides whether e can be evaluated once per *source row* of a
// hoisted for-binding sequence instead of once per iteration: its deepest
// free variable must be exactly one for-variable with source provenance,
// and every other free variable must be bound at or above the source
// sequence's frame. This is the decorrelation that keeps XMark Q9's
// triply-nested comparison from materializing the triple iteration space.
func (c *compiler) srcHoist(e xquery.Expr, f *frame) (*srcInfo, bool) {
	if c.containsConstructor(e) {
		return nil, false
	}
	fv := c.freeVars(e)
	if len(fv) == 0 {
		return nil, false
	}
	var deepest *frame
	deepVar := ""
	anchors := make(map[string]*frame, len(fv))
	for name := range fv {
		fr, _ := f.lookup(name)
		if fr == nil {
			return nil, false
		}
		anchors[name] = fr
		if deepest == nil || fr.depth > deepest.depth {
			deepest, deepVar = fr, name
		}
	}
	// Exactly one variable may live at the deepest frame.
	for name, fr := range anchors {
		if fr == deepest && name != deepVar {
			return nil, false
		}
	}
	if deepest.srcs == nil {
		return nil, false
	}
	si := deepest.srcs[deepVar]
	if si == nil {
		return nil, false
	}
	g := si.srcFrame.parent
	for name, fr := range anchors {
		if name == deepVar {
			continue
		}
		if fr.depth > g.depth {
			return nil, false
		}
	}
	return si, true
}

// srcFrame builds the frame over the source rows of a hoisted binding
// sequence (qG: iter | pos | item | src, evaluated at frame g), binding the
// for-variable v once per row. It is parented at the deepest ancestor of
// cur that still shares g's iteration space (let frames add variables
// without changing the loop), so variables bound there stay visible to
// source-row evaluation.
func (c *compiler) srcFrame(v string, qG *algebra.Node, g, cur *frame) *frame {
	gTop := g
	var chain []*frame
	for fr := cur; fr != g; fr = fr.parent {
		chain = append(chain, fr)
	}
	for i := len(chain) - 1; i >= 0 && chain[i].fromParent == nil; i-- {
		gTop = chain[i]
	}
	f := gTop.child(
		c.b.Project(qG,
			algebra.ColPair{New: "outer", Old: "iter"},
			algebra.ColPair{New: "inner", Old: "src"}),
		c.b.Project(qG, algebra.ColPair{New: "iter", Old: "src"}))
	f.bind(v, c.withPos1(c.b.Project(qG,
		algebra.ColPair{New: "iter", Old: "src"},
		algebra.ColPair{New: "item", Old: "item"})))
	return f
}

// rootSpace reports whether f iterates exactly like the root frame — a
// single iteration: no frame on its chain maps into a new iteration space.
func (f *frame) rootSpace() bool {
	for fr := f; fr != nil; fr = fr.parent {
		if fr.fromParent != nil {
			return false
		}
	}
	return true
}

// liftFromSrc maps a table keyed by source rows into frame f through the
// source map.
func (c *compiler) liftFromSrc(q *algebra.Node, si *srcInfo, f *frame) *algebra.Node {
	km := c.srcKeyed(si, f, "srck") // (srck, iter) with iter = f's iterations
	qr := c.b.Project(c.b.Keep(q, "iter", "pos", "item"),
		algebra.ColPair{New: "src2", Old: "iter"},
		algebra.ColPair{New: "pos", Old: "pos"},
		algebra.ColPair{New: "item", Old: "item"})
	j := algebra.WithOrigin(c.b.Join(km, qr, "srck", "src2"), "join (variable lifting)")
	return c.b.Project(j,
		algebra.ColPair{New: "iter", Old: "iter"},
		algebra.ColPair{New: "pos", Old: "pos"},
		algebra.ColPair{New: "item", Old: "item"})
}

// liftTo maps a table compiled at frame `from` into frame `to` by joining
// through each intervening map relation; extra columns pass through.
func (c *compiler) liftTo(q *algebra.Node, from, to *frame, extra ...string) *algebra.Node {
	// Collect the chain from `to` up to (exclusive) `from`.
	var chain []*frame
	for fr := to; fr != from; fr = fr.parent {
		chain = append(chain, fr)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if m := chain[i].fromParent; m != nil {
			q = c.liftCols(q, m, extra...)
		}
	}
	return q
}

// mapBetween composes the map relations between two frames (outer =
// iterations of `from`, inner = iterations of `to`); nil when the
// iteration space is unchanged.
func (c *compiler) mapBetween(from, to *frame) *algebra.Node {
	var chain []*frame
	for fr := to; fr != from; fr = fr.parent {
		chain = append(chain, fr)
	}
	var total *algebra.Node
	for i := len(chain) - 1; i >= 0; i-- {
		m := chain[i].fromParent
		if m == nil {
			continue
		}
		if total == nil {
			total = m
		} else {
			total = c.composeMap(total, m)
		}
	}
	return total
}

// restrictFrame pushes a frame for a restricted loop (where clauses, if
// branches): the map is the identity on the surviving iterations, so
// lifting through it is a semijoin.
func (f *frame) restrict(c *compiler, loop *algebra.Node) *frame {
	m := c.b.Project(loop,
		algebra.ColPair{New: "outer", Old: "iter"},
		algebra.ColPair{New: "inner", Old: "iter"})
	return f.child(m, loop)
}
