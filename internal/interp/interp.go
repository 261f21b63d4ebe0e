// Package interp is a direct tree-walking interpreter for the XQuery
// subset, with strict ordered semantics throughout. It plays two roles in
// the reproduction:
//
//   - correctness oracle: the relational pipeline under ordering mode
//     ordered must agree with it byte-for-byte on serialized results;
//   - baseline: it embodies the conventional "order everywhere" processor
//     the paper's introduction contrasts against (document order after
//     every step, sequence order maintained eagerly).
package interp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Interp evaluates parsed queries against a set of named documents.
type Interp struct {
	base *xmltree.Store
	docs map[string][]uint32
}

// New creates an interpreter over the given store; docs maps fn:doc()
// URIs to fragment IDs registered in the store — one id per document
// root, several for a sharded corpus, returned by fn:doc() in order.
func New(store *xmltree.Store, docs map[string][]uint32) *Interp {
	return &Interp{base: store, docs: docs}
}

// Result is an evaluated item sequence together with the store that owns
// any nodes constructed during evaluation.
type Result struct {
	Items []xdm.Item
	Store *xmltree.Store
}

// SerializeXML renders the result sequence per the XQuery serialization
// rules: adjacent atomic values separated by a single space, nodes
// serialized as XML.
func (r *Result) SerializeXML() (string, error) {
	return xmltree.SerializeItems(r.Store, r.Items)
}

// evalState carries per-evaluation mutable state.
type evalState struct {
	store *xmltree.Store
	docs  map[string][]uint32
	funcs map[string]*xquery.FuncDecl
	depth int
}

// env is an immutable chain of variable bindings.
type env struct {
	name  string
	items []xdm.Item
	next  *env
}

func (e *env) bind(name string, items []xdm.Item) *env {
	return &env{name: name, items: items, next: e}
}

func (e *env) lookup(name string) ([]xdm.Item, bool) {
	for b := e; b != nil; b = b.next {
		if b.name == name {
			return b.items, true
		}
	}
	return nil, false
}

// ctx is the dynamic context (context item, position, size) available
// inside predicates.
type ctx struct {
	item  xdm.Item
	pos   int
	size  int
	valid bool
}

// Eval evaluates a module and returns the resulting item sequence.
func (ip *Interp) Eval(m *xquery.Module) (*Result, error) {
	return ip.EvalWithVars(m, nil)
}

// EvalWithVars evaluates a module with bindings for its external prolog
// variables (declare variable $x external).
func (ip *Interp) EvalWithVars(m *xquery.Module, vars map[string][]xdm.Item) (*Result, error) {
	st := &evalState{
		store: ip.base.Derive(),
		docs:  ip.docs,
		funcs: make(map[string]*xquery.FuncDecl, len(m.Functions)),
	}
	for _, fd := range m.Functions {
		st.funcs[fd.Name] = fd
	}
	var en *env
	for _, vd := range m.Variables {
		if !vd.External {
			// Initialized declarations are desugared by normalization;
			// a module evaluated without normalization handles them here.
			v, err := st.eval(vd.Init, en, ctx{})
			if err != nil {
				return nil, err
			}
			en = en.bind(vd.Name, v)
			continue
		}
		v, ok := vars[vd.Name]
		if !ok {
			return nil, fmt.Errorf("interp: external variable $%s not bound", vd.Name)
		}
		en = en.bind(vd.Name, v)
	}
	items, err := st.eval(m.Body, en, ctx{})
	if err != nil {
		return nil, err
	}
	return &Result{Items: items, Store: st.store}, nil
}

// EvalString parses and evaluates a query.
func (ip *Interp) EvalString(src string) (*Result, error) {
	m, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return ip.Eval(m)
}

func (st *evalState) eval(e xquery.Expr, en *env, c ctx) ([]xdm.Item, error) {
	switch e := e.(type) {
	case *xquery.IntLit:
		return []xdm.Item{xdm.NewInt(e.Val)}, nil
	case *xquery.DecLit:
		return []xdm.Item{xdm.NewDouble(e.Val)}, nil
	case *xquery.StrLit:
		return []xdm.Item{xdm.NewString(e.Val)}, nil
	case *xquery.EmptySeq:
		return nil, nil
	case *xquery.VarRef:
		items, ok := en.lookup(e.Name)
		if !ok {
			return nil, fmt.Errorf("interp: unbound variable $%s", e.Name)
		}
		return items, nil
	case *xquery.ContextItem:
		if !c.valid {
			return nil, fmt.Errorf("interp: context item undefined")
		}
		return []xdm.Item{c.item}, nil
	case *xquery.Sequence:
		var out []xdm.Item
		for _, it := range e.Items {
			v, err := st.eval(it, en, c)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xquery.Path:
		return st.evalPath(e, en, c)
	case *xquery.Filter:
		base, err := st.eval(e.Base, en, c)
		if err != nil {
			return nil, err
		}
		return st.applyPredicatesToSeq(base, e.Preds, en)
	case *xquery.FLWOR:
		return st.evalFLWOR(e, en, c)
	case *xquery.Quantified:
		return st.evalQuantified(e, en, c)
	case *xquery.IfExpr:
		cond, err := st.eval(e.Cond, en, c)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBooleanValue(cond)
		if err != nil {
			return nil, err
		}
		if b {
			return st.eval(e.Then, en, c)
		}
		return st.eval(e.Else, en, c)
	case *xquery.Arith:
		return st.evalArith(e, en, c)
	case *xquery.Neg:
		v, err := st.atomizeSingleton(e.Expr, en, c)
		if err != nil || v == nil {
			return nil, err
		}
		return arithResult(xdm.Negate(*v))
	case *xquery.GeneralCmp:
		return st.evalGeneralCmp(e, en, c)
	case *xquery.ValueCmp:
		return st.evalValueCmp(e, en, c)
	case *xquery.NodeCmp:
		return st.evalNodeCmp(e, en, c)
	case *xquery.Logic:
		lv, err := st.eval(e.L, en, c)
		if err != nil {
			return nil, err
		}
		lb, err := xdm.EffectiveBooleanValue(lv)
		if err != nil {
			return nil, err
		}
		// XQuery allows short-circuiting but does not require it; we
		// evaluate both sides for deterministic error behaviour.
		rv, err := st.eval(e.R, en, c)
		if err != nil {
			return nil, err
		}
		rb, err := xdm.EffectiveBooleanValue(rv)
		if err != nil {
			return nil, err
		}
		if e.Op == xquery.LogicAnd {
			return []xdm.Item{xdm.NewBool(lb && rb)}, nil
		}
		return []xdm.Item{xdm.NewBool(lb || rb)}, nil
	case *xquery.SetOp:
		return st.evalSetOp(e, en, c)
	case *xquery.RangeExpr:
		return st.evalRange(e, en, c)
	case *xquery.FuncCall:
		return st.evalFuncCall(e, en, c)
	case *xquery.OrderedExpr:
		// The ordered result is one admissible result of unordered{}, so
		// the oracle treats both modes as identity.
		return st.eval(e.Expr, en, c)
	case *xquery.ElemCons:
		return st.evalElemCons(e, en, c)
	default:
		return nil, fmt.Errorf("interp: unsupported expression %T", e)
	}
}

// --- Paths and steps ---

func (st *evalState) evalPath(p *xquery.Path, en *env, c ctx) ([]xdm.Item, error) {
	var current []xdm.Item
	if p.Start != nil {
		v, err := st.eval(p.Start, en, c)
		if err != nil {
			return nil, err
		}
		current = v
	} else {
		if !c.valid {
			return nil, fmt.Errorf("interp: relative path without context item")
		}
		current = []xdm.Item{c.item}
	}
	for i := range p.Steps {
		next, err := st.evalStep(current, &p.Steps[i], en)
		if err != nil {
			return nil, err
		}
		current = next
	}
	return current, nil
}

// evalStep applies one location step to a context sequence: per context
// node, the axis+test yields a node list in document order; predicates
// filter positionally within that list; results are merged, deduplicated,
// and sorted into document order.
func (st *evalState) evalStep(context []xdm.Item, step *xquery.Step, en *env) ([]xdm.Item, error) {
	seen := make(map[xdm.NodeID]bool)
	var out []xdm.Item
	for _, it := range context {
		if !it.IsNode() {
			return nil, fmt.Errorf("interp: path step over atomic value %s", it.Kind)
		}
		nodes := st.axisNodes(it.N, step.Axis, step.Test)
		filtered, err := st.applyPredicatesToSeq(nodes, step.Preds, en)
		if err != nil {
			return nil, err
		}
		for _, n := range filtered {
			if !seen[n.N] {
				seen[n.N] = true
				out = append(out, n)
			}
		}
	}
	sortNodes(out)
	return out, nil
}

// axisNodes returns the axis result for one context node in document
// order, filtered by the node test.
func (st *evalState) axisNodes(id xdm.NodeID, axis xquery.Axis, test xquery.NodeTest) []xdm.Item {
	f := st.store.Frag(id.Frag)
	v := id.Pre
	var pres []int32
	switch axis {
	case xquery.AxisChild:
		pres = f.Children(v)
	case xquery.AxisDescendant:
		pres = f.Descendants(v)
	case xquery.AxisDescendantOrSelf:
		pres = append([]int32{v}, f.Descendants(v)...)
	case xquery.AxisSelf:
		pres = []int32{v}
	case xquery.AxisAttribute:
		pres = f.Attributes(v)
	case xquery.AxisParent:
		if p := f.Parent[v]; p >= 0 {
			pres = []int32{p}
		}
	}
	var out []xdm.Item
	for _, p := range pres {
		if matchTest(f, p, axis, test) {
			out = append(out, xdm.NewNode(xdm.NodeID{Frag: id.Frag, Pre: p}))
		}
	}
	return out
}

// matchTest applies a node test. On the attribute axis the principal node
// kind is attribute; elsewhere it is element.
func matchTest(f *xmltree.Fragment, pre int32, axis xquery.Axis, test xquery.NodeTest) bool {
	kind := f.Kind[pre]
	switch test.Kind {
	case xquery.TestNode:
		return true
	case xquery.TestText:
		return kind == xmltree.KindText
	case xquery.TestWild:
		if axis == xquery.AxisAttribute {
			return kind == xmltree.KindAttr
		}
		return kind == xmltree.KindElem
	default: // TestName
		if axis == xquery.AxisAttribute {
			return kind == xmltree.KindAttr && f.NodeName(pre) == test.Name
		}
		return kind == xmltree.KindElem && f.NodeName(pre) == test.Name
	}
}

// applyPredicatesToSeq filters a sequence through predicates with full
// XPath semantics: a predicate evaluating to a number selects by position,
// anything else by effective boolean value.
func (st *evalState) applyPredicatesToSeq(items []xdm.Item, preds []xquery.Expr, en *env) ([]xdm.Item, error) {
	current := items
	for _, pred := range preds {
		var kept []xdm.Item
		size := len(current)
		for i, it := range current {
			pc := ctx{item: it, pos: i + 1, size: size, valid: true}
			v, err := st.eval(pred, en, pc)
			if err != nil {
				return nil, err
			}
			keep, err := predicateTruth(v, i+1)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, it)
			}
		}
		current = kept
	}
	return current, nil
}

// predicateTruth decides whether a predicate value selects the item at
// 1-based position pos.
func predicateTruth(v []xdm.Item, pos int) (bool, error) {
	if len(v) == 1 && v[0].Kind.IsNumeric() {
		f, err := v[0].AsDouble()
		if err != nil {
			return false, err
		}
		return f == float64(pos), nil
	}
	return xdm.EffectiveBooleanValue(v)
}

func sortNodes(items []xdm.Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].N.Before(items[j].N) })
}

// --- FLWOR ---

type flworTuple struct {
	en   *env
	keys []xdm.Item // one per order spec; zero-length item slot encoded as empty marker
	keyE []bool     // per key: empty sequence flag
}

func (st *evalState) evalFLWOR(fl *xquery.FLWOR, en *env, c ctx) ([]xdm.Item, error) {
	tuples := []*env{en}
	for _, cl := range fl.Clauses {
		var next []*env
		switch cl := cl.(type) {
		case *xquery.ForClause:
			for _, t := range tuples {
				dom, err := st.eval(cl.In, t, c)
				if err != nil {
					return nil, err
				}
				for i, it := range dom {
					b := t.bind(cl.Var, []xdm.Item{it})
					if cl.PosVar != "" {
						b = b.bind(cl.PosVar, []xdm.Item{xdm.NewInt(int64(i + 1))})
					}
					next = append(next, b)
				}
			}
		case *xquery.LetClause:
			for _, t := range tuples {
				v, err := st.eval(cl.Expr, t, c)
				if err != nil {
					return nil, err
				}
				next = append(next, t.bind(cl.Var, v))
			}
		}
		tuples = next
	}
	// where
	if fl.Where != nil {
		var kept []*env
		for _, t := range tuples {
			v, err := st.eval(fl.Where, t, c)
			if err != nil {
				return nil, err
			}
			b, err := xdm.EffectiveBooleanValue(v)
			if err != nil {
				return nil, err
			}
			if b {
				kept = append(kept, t)
			}
		}
		tuples = kept
	}
	// order by
	if len(fl.Order) > 0 {
		wts := make([]flworTuple, len(tuples))
		for i, t := range tuples {
			wt := flworTuple{en: t}
			for _, spec := range fl.Order {
				kv, err := st.atomize(spec.Key, t, c)
				if err != nil {
					return nil, err
				}
				if len(kv) > 1 {
					return nil, fmt.Errorf("interp: order by key with more than one item")
				}
				if len(kv) == 0 {
					wt.keys = append(wt.keys, xdm.Item{})
					wt.keyE = append(wt.keyE, true)
				} else {
					wt.keys = append(wt.keys, kv[0])
					wt.keyE = append(wt.keyE, false)
				}
			}
			wts[i] = wt
		}
		// Each key column is ordered in its values' least common type.
		col := make([]xdm.Item, len(wts))
		for k := range fl.Order {
			for i := range wts {
				col[i] = wts[i].keys[k]
			}
			for i, key := range xdm.PromoteSortKeys(col) {
				wts[i].keys[k] = key
			}
		}
		sort.SliceStable(wts, func(a, b int) bool {
			for k, spec := range fl.Order {
				cv := compareKeys(wts[a].keys[k], wts[a].keyE[k], wts[b].keys[k], wts[b].keyE[k], spec)
				if cv != 0 {
					return cv < 0
				}
			}
			return false
		})
		tuples = tuples[:0]
		for _, wt := range wts {
			tuples = append(tuples, wt.en)
		}
	}
	// return
	var out []xdm.Item
	for _, t := range tuples {
		v, err := st.eval(fl.Return, t, c)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// compareKeys orders two order-by keys under a spec (empty least unless
// declared greatest; descending flips).
func compareKeys(a xdm.Item, aEmpty bool, b xdm.Item, bEmpty bool, spec xquery.OrderSpec) int {
	var cv int
	switch {
	case aEmpty && bEmpty:
		cv = 0
	case aEmpty:
		cv = -1
		if spec.EmptyGreatest {
			cv = 1
		}
	case bEmpty:
		cv = 1
		if spec.EmptyGreatest {
			cv = -1
		}
	default:
		cv = xdm.OrderCompare(a, b)
	}
	if spec.Descending {
		cv = -cv
	}
	return cv
}

func (st *evalState) evalQuantified(q *xquery.Quantified, en *env, c ctx) ([]xdm.Item, error) {
	var rec func(i int, en *env) (bool, error)
	rec = func(i int, en *env) (bool, error) {
		if i == len(q.Vars) {
			v, err := st.eval(q.Satisfies, en, c)
			if err != nil {
				return false, err
			}
			return xdm.EffectiveBooleanValue(v)
		}
		dom, err := st.eval(q.Vars[i].In, en, c)
		if err != nil {
			return false, err
		}
		for _, it := range dom {
			ok, err := rec(i+1, en.bind(q.Vars[i].Var, []xdm.Item{it}))
			if err != nil {
				return false, err
			}
			if ok != q.Every {
				return ok, nil // some: first true wins; every: first false wins
			}
		}
		return q.Every, nil
	}
	b, err := rec(0, en)
	if err != nil {
		return nil, err
	}
	return []xdm.Item{xdm.NewBool(b)}, nil
}

// --- Atomization and operators ---

// atomize evaluates an expression and atomizes every item.
func (st *evalState) atomize(e xquery.Expr, en *env, c ctx) ([]xdm.Item, error) {
	v, err := st.eval(e, en, c)
	if err != nil {
		return nil, err
	}
	out := make([]xdm.Item, len(v))
	for i, it := range v {
		out[i] = st.store.Atomize(it)
	}
	return out, nil
}

// atomizeSingleton atomizes an operand that must be a singleton or empty;
// empty returns (nil, nil).
func (st *evalState) atomizeSingleton(e xquery.Expr, en *env, c ctx) (*xdm.Item, error) {
	v, err := st.atomize(e, en, c)
	if err != nil {
		return nil, err
	}
	switch len(v) {
	case 0:
		return nil, nil
	case 1:
		return &v[0], nil
	default:
		return nil, fmt.Errorf("interp: operand with more than one item")
	}
}

func arithResult(it xdm.Item, err error) ([]xdm.Item, error) {
	if err != nil {
		return nil, err
	}
	return []xdm.Item{it}, nil
}

func (st *evalState) evalArith(e *xquery.Arith, en *env, c ctx) ([]xdm.Item, error) {
	l, err := st.atomizeSingleton(e.L, en, c)
	if err != nil || l == nil {
		return nil, err
	}
	r, err := st.atomizeSingleton(e.R, en, c)
	if err != nil || r == nil {
		return nil, err
	}
	return arithResult(xdm.Arith(*l, *r, e.Op))
}

func (st *evalState) evalGeneralCmp(e *xquery.GeneralCmp, en *env, c ctx) ([]xdm.Item, error) {
	l, err := st.atomize(e.L, en, c)
	if err != nil {
		return nil, err
	}
	r, err := st.atomize(e.R, en, c)
	if err != nil {
		return nil, err
	}
	for _, a := range l {
		for _, b := range r {
			ok, err := xdm.CompareGeneral(a, b, e.Op)
			if err != nil {
				return nil, err
			}
			if ok {
				return []xdm.Item{xdm.True}, nil
			}
		}
	}
	return []xdm.Item{xdm.False}, nil
}

func (st *evalState) evalValueCmp(e *xquery.ValueCmp, en *env, c ctx) ([]xdm.Item, error) {
	l, err := st.atomizeSingleton(e.L, en, c)
	if err != nil || l == nil {
		return nil, err
	}
	r, err := st.atomizeSingleton(e.R, en, c)
	if err != nil || r == nil {
		return nil, err
	}
	ok, err := xdm.CompareValue(*l, *r, e.Op)
	if err != nil {
		return nil, err
	}
	return []xdm.Item{xdm.NewBool(ok)}, nil
}

func (st *evalState) evalNodeCmp(e *xquery.NodeCmp, en *env, c ctx) ([]xdm.Item, error) {
	single := func(x xquery.Expr) (*xdm.Item, error) {
		v, err := st.eval(x, en, c)
		if err != nil {
			return nil, err
		}
		switch len(v) {
		case 0:
			return nil, nil
		case 1:
			if !v[0].IsNode() {
				return nil, fmt.Errorf("interp: node comparison over atomic value")
			}
			return &v[0], nil
		default:
			return nil, fmt.Errorf("interp: node comparison over sequence")
		}
	}
	l, err := single(e.L)
	if err != nil || l == nil {
		return nil, err
	}
	r, err := single(e.R)
	if err != nil || r == nil {
		return nil, err
	}
	var b bool
	switch e.Op {
	case xquery.NodeBefore:
		b = l.N.Before(r.N)
	case xquery.NodeAfter:
		b = r.N.Before(l.N)
	default:
		b = l.N == r.N
	}
	return []xdm.Item{xdm.NewBool(b)}, nil
}

func (st *evalState) evalSetOp(e *xquery.SetOp, en *env, c ctx) ([]xdm.Item, error) {
	nodes := func(x xquery.Expr) (map[xdm.NodeID]bool, []xdm.Item, error) {
		v, err := st.eval(x, en, c)
		if err != nil {
			return nil, nil, err
		}
		set := make(map[xdm.NodeID]bool, len(v))
		for _, it := range v {
			if !it.IsNode() {
				return nil, nil, fmt.Errorf("interp: %s over atomic values", e.Kind)
			}
			set[it.N] = true
		}
		return set, v, nil
	}
	_, lv, err := nodes(e.L)
	if err != nil {
		return nil, err
	}
	rset, rv, err := nodes(e.R)
	if err != nil {
		return nil, err
	}
	var out []xdm.Item
	emit := make(map[xdm.NodeID]bool)
	add := func(it xdm.Item, cond bool) {
		if cond && !emit[it.N] {
			emit[it.N] = true
			out = append(out, it)
		}
	}
	switch e.Kind {
	case xquery.SetUnion:
		for _, it := range lv {
			add(it, true)
		}
		for _, it := range rv {
			add(it, true)
		}
	case xquery.SetIntersect:
		for _, it := range lv {
			add(it, rset[it.N])
		}
	default: // except
		for _, it := range lv {
			add(it, !rset[it.N])
		}
	}
	sortNodes(out)
	return out, nil
}

func (st *evalState) evalRange(e *xquery.RangeExpr, en *env, c ctx) ([]xdm.Item, error) {
	l, err := st.atomizeSingleton(e.L, en, c)
	if err != nil || l == nil {
		return nil, err
	}
	r, err := st.atomizeSingleton(e.R, en, c)
	if err != nil || r == nil {
		return nil, err
	}
	lo, err := l.AsInteger()
	if err != nil {
		return nil, err
	}
	hi, err := r.AsInteger()
	if err != nil {
		return nil, err
	}
	if hi < lo {
		return nil, nil
	}
	if hi-lo > 10_000_000 {
		return nil, fmt.Errorf("interp: range %d to %d too large", lo, hi)
	}
	out := make([]xdm.Item, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, xdm.NewInt(i))
	}
	return out, nil
}

// --- Element construction ---

func (st *evalState) evalElemCons(e *xquery.ElemCons, en *env, c ctx) ([]xdm.Item, error) {
	b := xmltree.NewBuilder()
	b.StartElem(e.Name)
	for _, a := range e.Attrs {
		var sb strings.Builder
		for _, part := range a.Parts {
			if part.Expr == nil {
				sb.WriteString(part.Literal)
				continue
			}
			v, err := st.atomize(part.Expr, en, c)
			if err != nil {
				return nil, err
			}
			for i, it := range v {
				if i > 0 {
					sb.WriteString(" ")
				}
				sb.WriteString(it.StringValue())
			}
		}
		b.Attr(a.Name, sb.String())
	}
	// Each enclosed expression's items go in as one run: its atomic
	// values join with spaces, and the run ends at the next content item.
	var content xmltree.Content
	content.Reset(st.store, b)
	for _, ce := range e.Content {
		if cc, ok := ce.(*xquery.CharContent); ok {
			b.Text(cc.Text)
			continue
		}
		v, err := st.eval(ce, en, c)
		if err != nil {
			return nil, err
		}
		for _, it := range v {
			if err := content.Add(it); err != nil {
				return nil, err
			}
		}
		content.Flush()
	}
	frag := b.Close()
	id := st.store.Add(frag)
	return []xdm.Item{xdm.NewNode(xdm.NodeID{Frag: id, Pre: 0})}, nil
}
