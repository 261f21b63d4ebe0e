package norm

import (
	"maps"

	"repro/internal/xquery"
)

// substituteVars renames free variable references per the rename map,
// respecting shadowing by inner for/let/quantifier bindings. Used when
// inlining function bodies so parameter references cannot capture caller
// bindings.
func substituteVars(e xquery.Expr, rename map[string]string) xquery.Expr {
	if len(rename) == 0 {
		return e
	}
	if v, ok := e.(*xquery.VarRef); ok {
		if to, ok := rename[v.Name]; ok {
			return &xquery.VarRef{Name: to}
		}
		return e
	}
	return xquery.Rewrite(e, func(c xquery.Expr, bound []string) xquery.Expr {
		return substituteVars(c, without(rename, bound))
	})
}

// without returns rename minus the names in bound, copying only when one
// of them is actually shadowed.
func without(rename map[string]string, bound []string) map[string]string {
	for i, name := range bound {
		if _, ok := rename[name]; ok {
			m := maps.Clone(rename)
			for _, name := range bound[i:] {
				delete(m, name)
			}
			return m
		}
	}
	return rename
}
