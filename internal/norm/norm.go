// Package norm implements the normalization step ⟦·⟧ of the eXrQuy
// pipeline (§2.2 of the paper). Its central job is to make order
// indifference explicit on the language level by inserting calls to
// fn:unordered() in the contexts where sequence order is unobservable:
//
//   - aggregate arguments: fn:count, fn:sum, fn:avg, fn:max, fn:min
//     (Rule FN:COUNT and its siblings),
//   - fn:empty, fn:exists, fn:boolean, fn:not, fn:distinct-values,
//   - the domains of some/every quantifiers (Rule QUANT — applies in
//     either ordering mode),
//   - both operands of general comparisons (whose W3C normalization is a
//     pair of nested some-quantifiers).
//
// The paper's Rules FOR/STEP/UNION (pushing unordered{} through
// iterations, steps and node set operations, Figure 4) are deliberately
// NOT expressed here: §2.2 shows they cannot capture the full freedom of
// ordering mode unordered (nested for reordering, positional variables).
// Those contexts are instead handled below the language level, by the
// compiler's twin rules LOC#/BIND# (package compile) — exactly the
// division of labour the paper argues for.
//
// The package also inlines prolog-declared functions (rejecting
// recursion), so the compiler sees a closed expression.
package norm

import (
	"fmt"

	"repro/internal/xquery"
)

// Options controls normalization.
type Options struct {
	// InsertUnordered enables the fn:unordered() insertion rules above.
	// Disabled, the pipeline behaves like the order-ignorant baseline
	// compiler of §5 ("if the compiler ignores order indifference").
	InsertUnordered bool
}

// unorderedArgFuncs lists built-ins whose argument order is unobservable.
var unorderedArgFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "max": true, "min": true,
	"empty": true, "exists": true, "boolean": true, "not": true,
	"distinct-values": true,
}

// Normalize rewrites a module per the options. The input module is not
// modified.
func Normalize(m *xquery.Module, opts Options) (*xquery.Module, error) {
	n := &normalizer{opts: opts, funcs: make(map[string]*xquery.FuncDecl)}
	for _, fd := range m.Functions {
		if _, dup := n.funcs[fd.Name]; dup {
			return nil, fmt.Errorf("norm: duplicate function %s", fd.Name)
		}
		n.funcs[fd.Name] = fd
	}
	body, err := n.rewrite(m.Body)
	if err != nil {
		return nil, err
	}
	// Initialized prolog variables desugar into a let chain around the
	// body (innermost = last declared); external ones survive for the
	// host environment to bind.
	var externals []*xquery.VarDecl
	for i := len(m.Variables) - 1; i >= 0; i-- {
		vd := m.Variables[i]
		if vd.External {
			externals = append([]*xquery.VarDecl{vd}, externals...)
			continue
		}
		init, err := n.rewrite(vd.Init)
		if err != nil {
			return nil, err
		}
		body = &xquery.FLWOR{
			Clauses: []xquery.Clause{&xquery.LetClause{Var: vd.Name, Expr: init}},
			Return:  body,
		}
	}
	return &xquery.Module{Ordering: m.Ordering, Variables: externals, Body: body}, nil
}

type normalizer struct {
	opts  Options
	funcs map[string]*xquery.FuncDecl
	depth int
	fresh int
}

const maxInlineDepth = 64

// rewrite inlines prolog-declared function calls, normalizes every other
// node's children, then applies the insertion rules to the fresh node.
func (n *normalizer) rewrite(e xquery.Expr) (xquery.Expr, error) {
	if fc, ok := e.(*xquery.FuncCall); ok {
		if fd := n.funcs[fc.Name]; fd != nil {
			return n.inline(fc, fd)
		}
	}
	var err error
	out := xquery.Rewrite(e, func(c xquery.Expr, _ []string) xquery.Expr {
		if err != nil {
			return c
		}
		var v xquery.Expr
		v, err = n.rewrite(c)
		return v
	})
	if err != nil {
		return nil, err
	}
	if n.opts.InsertUnordered {
		insertUnordered(out)
	}
	return out, nil
}

// insertUnordered applies the fn:unordered() insertion rules to the
// child slots of e, a node Rewrite just copied.
func insertUnordered(e xquery.Expr) {
	switch e := e.(type) {
	case *xquery.FLWOR:
		// where p ≡ if (fn:boolean(p)) …: the condition is an EBV
		// context, hence order indifferent.
		if e.Where != nil {
			e.Where = ebvContext(e.Where)
		}
	case *xquery.Quantified:
		// Rule QUANT: quantifier domains are order indifferent in
		// either ordering mode.
		for i := range e.Vars {
			e.Vars[i].In = wrap(e.Vars[i].In)
		}
		e.Satisfies = ebvContext(e.Satisfies)
	case *xquery.IfExpr:
		e.Cond = ebvContext(e.Cond)
	case *xquery.GeneralCmp:
		// General comparisons normalize to nested some-quantifiers; both
		// operand sequences are therefore order indifferent (§2.2).
		e.L, e.R = wrap(e.L), wrap(e.R)
	case *xquery.Logic:
		e.L, e.R = ebvContext(e.L), ebvContext(e.R)
	case *xquery.FuncCall:
		if unorderedArgFuncs[e.Name] && len(e.Args) == 1 {
			e.Args[0] = wrap(e.Args[0])
		}
	}
}

// wrap inserts fn:unordered(e) unless e is already such a call.
func wrap(e xquery.Expr) xquery.Expr {
	if fc, ok := e.(*xquery.FuncCall); ok && fc.Name == "unordered" {
		return e
	}
	return &xquery.FuncCall{Name: "unordered", Args: []xquery.Expr{e}}
}

// ebvContext marks an expression as consumed through its effective
// boolean value (if/where/and/or/satisfies): order indifferent.
func ebvContext(e xquery.Expr) xquery.Expr {
	// Avoid noise around expressions that are single booleans anyway.
	switch e.(type) {
	case *xquery.GeneralCmp, *xquery.ValueCmp, *xquery.NodeCmp,
		*xquery.Logic, *xquery.Quantified:
		return e
	}
	return wrap(e)
}

// inline replaces a call of a prolog-declared function by a let-chain
// binding fresh parameter names (avoiding capture), followed by the
// rewritten body with parameters renamed.
func (n *normalizer) inline(e *xquery.FuncCall, fd *xquery.FuncDecl) (xquery.Expr, error) {
	if len(e.Args) != len(fd.Params) {
		return nil, fmt.Errorf("norm: %s expects %d arguments, got %d", e.Name, len(fd.Params), len(e.Args))
	}
	if n.depth++; n.depth > maxInlineDepth {
		return nil, fmt.Errorf("norm: recursive function %s cannot be inlined", e.Name)
	}
	defer func() { n.depth-- }()
	rename := make(map[string]string, len(fd.Params))
	fl := &xquery.FLWOR{}
	for i, p := range fd.Params {
		n.fresh++
		fresh := fmt.Sprintf("%s#%d", p.Name, n.fresh)
		rename[p.Name] = fresh
		arg, err := n.rewrite(e.Args[i])
		if err != nil {
			return nil, err
		}
		fl.Clauses = append(fl.Clauses, &xquery.LetClause{Var: fresh, Expr: arg})
	}
	body, err := n.rewrite(substituteVars(fd.Body, rename))
	if err != nil {
		return nil, err
	}
	if len(fl.Clauses) == 0 {
		return body, nil
	}
	fl.Return = body
	return fl, nil
}
