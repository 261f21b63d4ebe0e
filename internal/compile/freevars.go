package compile

import (
	"slices"

	"repro/internal/xquery"
)

// freeVars returns the free variable names of an expression, with the
// context item counted as the pseudo-variable ".". Results are memoized
// per AST node.
func (c *compiler) freeVars(e xquery.Expr) map[string]bool {
	if c.fvCache == nil {
		c.fvCache = make(map[xquery.Expr]map[string]bool)
	}
	if fv, ok := c.fvCache[e]; ok {
		return fv
	}
	fv := map[string]bool{}
	collectFree(e, nil, fv)
	c.fvCache[e] = fv
	return fv
}

// containsConstructor reports whether e contains a direct element
// constructor anywhere (memoized).
func (c *compiler) containsConstructor(e xquery.Expr) bool {
	if c.consCache == nil {
		c.consCache = make(map[xquery.Expr]bool)
	}
	if v, ok := c.consCache[e]; ok {
		return v
	}
	v := hasConstructor(e)
	c.consCache[e] = v
	return v
}

// collectFree adds to out the free variables of e that scope does not
// bind.
func collectFree(e xquery.Expr, scope []string, out map[string]bool) {
	add := func(name string) {
		if !slices.Contains(scope, name) {
			out[name] = true
		}
	}
	switch e := e.(type) {
	case *xquery.VarRef:
		add(e.Name)
	case *xquery.ContextItem:
		add(".")
	case *xquery.Path:
		if e.Start == nil {
			add(".")
		}
	}
	xquery.Children(e, func(c xquery.Expr, bound []string) {
		if len(bound) > 0 {
			collectFree(c, append(slices.Clip(scope), bound...), out)
		} else {
			collectFree(c, scope, out)
		}
	})
}

// hasConstructor reports whether e is or contains an element constructor.
func hasConstructor(e xquery.Expr) bool {
	if _, ok := e.(*xquery.ElemCons); ok {
		return true
	}
	found := false
	xquery.Children(e, func(c xquery.Expr, _ []string) {
		found = found || hasConstructor(c)
	})
	return found
}
