package xquery

import "slices"

// dot is the binding step and filter predicates see: they rebind the
// context item ".".
var dot = []string{"."}

// Children calls f on each direct child of e, in source order. bound
// names what e binds in that child's scope: the for, at, let and
// quantifier variables bound by earlier clauses, and "." inside step
// and filter predicates. Leaves have no children. f must neither retain
// nor modify bound.
//
// Children and Rewrite are the one traversal of the AST: a walker
// handles the kinds it treats specially and hands every other node to
// one of them.
func Children(e Expr, f func(child Expr, bound []string)) {
	slots(e, false, func(p *Expr, bound []string) { f(*p, bound) })
}

// Rewrite returns a copy of e with each child replaced by f(child,
// bound), visiting children as Children does. It never writes into e:
// the node and every slice or clause holding a child are fresh, so the
// caller may also edit the copy's child slots. Leaves come back as they
// are.
func Rewrite(e Expr, f func(child Expr, bound []string) Expr) Expr {
	return slots(e, true, func(p *Expr, bound []string) { *p = f(*p, bound) })
}

// slots is the per-kind child list behind Children and Rewrite: it
// calls f with a pointer to each child slot of e in source order. With
// clone set it first copies e and everything holding a child, hands out
// the copy's slots, and returns the copy; otherwise it returns e.
func slots(e Expr, clone bool, f func(slot *Expr, bound []string)) Expr {
	switch e := e.(type) {
	case *Sequence:
		if clone {
			e = &Sequence{Items: slices.Clone(e.Items)}
		}
		each(e.Items, nil, f)
		return e
	case *Path:
		if clone {
			e = &Path{Start: e.Start, Steps: slices.Clone(e.Steps)}
			for i := range e.Steps {
				e.Steps[i].Preds = slices.Clone(e.Steps[i].Preds)
			}
		}
		if e.Start != nil {
			f(&e.Start, nil)
		}
		for i := range e.Steps {
			each(e.Steps[i].Preds, dot, f)
		}
		return e
	case *Filter:
		if clone {
			e = &Filter{Base: e.Base, Preds: slices.Clone(e.Preds)}
		}
		f(&e.Base, nil)
		each(e.Preds, dot, f)
		return e
	case *FLWOR:
		if clone {
			c := *e
			c.Clauses = make([]Clause, len(e.Clauses))
			for i, cl := range e.Clauses {
				switch cl := cl.(type) {
				case *ForClause:
					v := *cl
					c.Clauses[i] = &v
				case *LetClause:
					v := *cl
					c.Clauses[i] = &v
				}
			}
			c.Order = slices.Clone(e.Order)
			e = &c
		}
		bound := make([]string, 0, 2*len(e.Clauses))
		for _, cl := range e.Clauses {
			switch cl := cl.(type) {
			case *ForClause:
				f(&cl.In, slices.Clip(bound))
				bound = append(bound, cl.Var)
				if cl.PosVar != "" {
					bound = append(bound, cl.PosVar)
				}
			case *LetClause:
				f(&cl.Expr, slices.Clip(bound))
				bound = append(bound, cl.Var)
			}
		}
		bound = slices.Clip(bound)
		if e.Where != nil {
			f(&e.Where, bound)
		}
		for i := range e.Order {
			f(&e.Order[i].Key, bound)
		}
		f(&e.Return, bound)
		return e
	case *Quantified:
		if clone {
			e = &Quantified{Every: e.Every, Vars: slices.Clone(e.Vars), Satisfies: e.Satisfies}
		}
		bound := make([]string, 0, len(e.Vars))
		for i := range e.Vars {
			f(&e.Vars[i].In, slices.Clip(bound))
			bound = append(bound, e.Vars[i].Var)
		}
		f(&e.Satisfies, bound)
		return e
	case *IfExpr:
		e = copyIf(e, clone)
		f(&e.Cond, nil)
		f(&e.Then, nil)
		f(&e.Else, nil)
		return e
	case *Arith:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *Neg:
		e = copyIf(e, clone)
		f(&e.Expr, nil)
		return e
	case *GeneralCmp:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *ValueCmp:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *NodeCmp:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *Logic:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *SetOp:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *RangeExpr:
		e = copyIf(e, clone)
		f(&e.L, nil)
		f(&e.R, nil)
		return e
	case *FuncCall:
		if clone {
			e = &FuncCall{Name: e.Name, Args: slices.Clone(e.Args)}
		}
		each(e.Args, nil, f)
		return e
	case *OrderedExpr:
		e = copyIf(e, clone)
		f(&e.Expr, nil)
		return e
	case *ElemCons:
		if clone {
			e = &ElemCons{Name: e.Name, Attrs: slices.Clone(e.Attrs), Content: slices.Clone(e.Content)}
			for i := range e.Attrs {
				e.Attrs[i].Parts = slices.Clone(e.Attrs[i].Parts)
			}
		}
		for i := range e.Attrs {
			for j := range e.Attrs[i].Parts {
				if p := &e.Attrs[i].Parts[j]; p.Expr != nil {
					f(&p.Expr, nil)
				}
			}
		}
		each(e.Content, nil, f)
		return e
	}
	// IntLit, DecLit, StrLit, VarRef, ContextItem, EmptySeq, CharContent.
	return e
}

// each hands out the slots of a child list that all share one scope.
func each(list []Expr, bound []string, f func(*Expr, []string)) {
	for i := range list {
		f(&list[i], bound)
	}
}

// copyIf returns a shallow copy of *e when clone is set, e otherwise.
func copyIf[T any](e *T, clone bool) *T {
	if !clone {
		return e
	}
	c := *e
	return &c
}
