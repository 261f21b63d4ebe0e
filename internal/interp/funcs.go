package interp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

const maxCallDepth = 256

func (st *evalState) evalFuncCall(e *xquery.FuncCall, en *env, c ctx) ([]xdm.Item, error) {
	// Prolog-declared functions (local:…).
	if fd, ok := st.funcs[e.Name]; ok {
		if len(e.Args) != len(fd.Params) {
			return nil, fmt.Errorf("interp: %s expects %d arguments, got %d", e.Name, len(fd.Params), len(e.Args))
		}
		if st.depth++; st.depth > maxCallDepth {
			return nil, fmt.Errorf("interp: call depth exceeded in %s", e.Name)
		}
		defer func() { st.depth-- }()
		// Function bodies see only their parameters (XQuery functions are
		// closed over the static context, not the caller's variables).
		var fnEnv *env
		for i, p := range fd.Params {
			v, err := st.eval(e.Args[i], en, c)
			if err != nil {
				return nil, err
			}
			fnEnv = fnEnv.bind(p.Name, v)
		}
		return st.eval(fd.Body, fnEnv, ctx{})
	}

	arg := func(i int) (xquery.Expr, error) {
		if i >= len(e.Args) {
			return nil, fmt.Errorf("interp: %s: missing argument %d", e.Name, i+1)
		}
		return e.Args[i], nil
	}
	evalArg := func(i int) ([]xdm.Item, error) {
		a, err := arg(i)
		if err != nil {
			return nil, err
		}
		return st.eval(a, en, c)
	}
	atomizeArg := func(i int) ([]xdm.Item, error) {
		a, err := arg(i)
		if err != nil {
			return nil, err
		}
		return st.atomize(a, en, c)
	}
	checkArity := func(n int) error {
		if len(e.Args) != n {
			return fmt.Errorf("interp: %s expects %d argument(s), got %d", e.Name, n, len(e.Args))
		}
		return nil
	}

	switch e.Name {
	case "doc":
		if err := checkArity(1); err != nil {
			return nil, err
		}
		v, err := atomizeArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return nil, fmt.Errorf("interp: doc() expects a single URI")
		}
		ids, ok := st.docs[v[0].StringValue()]
		if !ok {
			return nil, fmt.Errorf("interp: unknown document %q", v[0].StringValue())
		}
		out := make([]xdm.Item, len(ids))
		for i, id := range ids {
			out[i] = xdm.NewNode(xdm.NodeID{Frag: id, Pre: 0})
		}
		return out, nil

	case "count":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return []xdm.Item{xdm.NewInt(int64(len(v)))}, nil

	case "sum", "avg", "max", "min":
		if err := checkArity(1); err != nil {
			return nil, err
		}
		v, err := atomizeArg(0)
		if err != nil {
			return nil, err
		}
		op := map[string]xdm.AggOp{"sum": xdm.AggSum, "avg": xdm.AggAvg, "max": xdm.AggMax, "min": xdm.AggMin}[e.Name]
		var agg xdm.Aggregate
		for _, it := range v {
			if err := agg.Add(op, it); err != nil {
				return nil, err
			}
		}
		if it, ok := agg.Result(op); ok {
			return []xdm.Item{it}, nil
		}
		return nil, nil

	case "empty":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return []xdm.Item{xdm.NewBool(len(v) == 0)}, nil

	case "exists":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return []xdm.Item{xdm.NewBool(len(v) > 0)}, nil

	case "not", "boolean":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBooleanValue(v)
		if err != nil {
			return nil, err
		}
		if e.Name == "not" {
			b = !b
		}
		return []xdm.Item{xdm.NewBool(b)}, nil

	case "true":
		return []xdm.Item{xdm.True}, nil
	case "false":
		return []xdm.Item{xdm.False}, nil

	case "string":
		if len(e.Args) == 0 {
			if !c.valid {
				return nil, fmt.Errorf("interp: string() without context item")
			}
			return []xdm.Item{xdm.NewString(st.store.Atomize(c.item).StringValue())}, nil
		}
		v, err := atomizeArg(0)
		if err != nil {
			return nil, err
		}
		switch len(v) {
		case 0:
			return []xdm.Item{xdm.NewString("")}, nil
		case 1:
			return []xdm.Item{xdm.NewString(v[0].StringValue())}, nil
		default:
			return nil, fmt.Errorf("interp: string() over a sequence")
		}

	case "data":
		return atomizeArg(0)

	case "number":
		v, err := atomizeArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return []xdm.Item{xdm.NewDouble(math.NaN())}, nil
		}
		return []xdm.Item{xdm.NewDouble(v[0].NumberOrNaN())}, nil

	case "string-length":
		v, err := atomizeArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return []xdm.Item{xdm.NewInt(0)}, nil
		}
		return []xdm.Item{xdm.NewInt(int64(len([]rune(v[0].StringValue()))))}, nil

	case "contains", "starts-with", "ends-with":
		s1, err := st.stringArg(e, 0, en, c)
		if err != nil {
			return nil, err
		}
		s2, err := st.stringArg(e, 1, en, c)
		if err != nil {
			return nil, err
		}
		switch e.Name {
		case "contains":
			return []xdm.Item{xdm.NewBool(strings.Contains(s1, s2))}, nil
		case "starts-with":
			return []xdm.Item{xdm.NewBool(strings.HasPrefix(s1, s2))}, nil
		default:
			return []xdm.Item{xdm.NewBool(strings.HasSuffix(s1, s2))}, nil
		}

	case "normalize-space", "upper-case", "lower-case":
		if err := checkArity(1); err != nil {
			return nil, err
		}
		s, err := st.stringArg(e, 0, en, c)
		if err != nil {
			return nil, err
		}
		switch e.Name {
		case "normalize-space":
			s = xdm.NormalizeSpace(s)
		case "upper-case":
			s = strings.ToUpper(s)
		default:
			s = strings.ToLower(s)
		}
		return []xdm.Item{xdm.NewString(s)}, nil

	case "round", "floor", "ceiling", "abs":
		if err := checkArity(1); err != nil {
			return nil, err
		}
		v, err := st.atomizeSingleton(e.Args[0], en, c)
		if err != nil || v == nil {
			return nil, err
		}
		fn := map[string]func(xdm.Item) (xdm.Item, error){
			"round": xdm.Round, "floor": xdm.Floor, "ceiling": xdm.Ceiling, "abs": xdm.Abs,
		}[e.Name]
		return arithResult(fn(*v))

	case "substring":
		if len(e.Args) != 2 && len(e.Args) != 3 {
			return nil, fmt.Errorf("interp: substring expects 2 or 3 arguments")
		}
		s, err := st.stringArg(e, 0, en, c)
		if err != nil {
			return nil, err
		}
		var bounds []xdm.Item
		for _, a := range e.Args[1:] {
			b, err := st.atomizeSingleton(a, en, c)
			if err != nil {
				return nil, err
			}
			if b == nil {
				return []xdm.Item{xdm.NewString("")}, nil
			}
			bounds = append(bounds, *b)
		}
		return arithResult(xdm.Substring(s, bounds[0], bounds[1:]...))

	case "string-join":
		if err := checkArity(2); err != nil {
			return nil, err
		}
		v, err := st.atomize(e.Args[0], en, c)
		if err != nil {
			return nil, err
		}
		sep, err := st.stringArg(e, 1, en, c)
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(v))
		for i, it := range v {
			parts[i] = it.StringValue()
		}
		return []xdm.Item{xdm.NewString(strings.Join(parts, sep))}, nil

	case "concat":
		if len(e.Args) < 2 {
			return nil, fmt.Errorf("interp: concat expects at least 2 arguments")
		}
		var sb strings.Builder
		for i := range e.Args {
			s, err := st.stringArg(e, i, en, c)
			if err != nil {
				return nil, err
			}
			sb.WriteString(s)
		}
		return []xdm.Item{xdm.NewString(sb.String())}, nil

	case "distinct-values":
		v, err := atomizeArg(0)
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, len(v))
		var out []xdm.Item
		for _, it := range v {
			k := xdm.DistinctKey(it)
			if !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
		return out, nil

	case "unordered":
		// Identity: the input order is one admissible permutation.
		return evalArg(0)

	case "zero-or-one":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) > 1 {
			return nil, fmt.Errorf("interp: zero-or-one over %d items", len(v))
		}
		return v, nil

	case "exactly-one":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return nil, fmt.Errorf("interp: exactly-one over %d items", len(v))
		}
		return v, nil

	case "one-or-more":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return nil, fmt.Errorf("interp: one-or-more over empty sequence")
		}
		return v, nil

	case "last":
		if !c.valid {
			return nil, fmt.Errorf("interp: last() outside a predicate")
		}
		return []xdm.Item{xdm.NewInt(int64(c.size))}, nil

	case "position":
		if !c.valid {
			return nil, fmt.Errorf("interp: position() outside a predicate")
		}
		return []xdm.Item{xdm.NewInt(int64(c.pos))}, nil

	case "name", "local-name":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return []xdm.Item{xdm.NewString("")}, nil
		}
		if len(v) > 1 || !v[0].IsNode() {
			return nil, fmt.Errorf("interp: %s expects a single node", e.Name)
		}
		return []xdm.Item{xdm.NewString(st.store.NameOf(v[0].N))}, nil

	case "root":
		v, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 || !v[0].IsNode() {
			return nil, fmt.Errorf("interp: root expects a single node")
		}
		return []xdm.Item{xdm.NewNode(xdm.NodeID{Frag: v[0].N.Frag, Pre: 0})}, nil

	default:
		return nil, fmt.Errorf("interp: unknown function %s#%d", e.Name, len(e.Args))
	}
}

// stringArg evaluates argument i and converts it to a string per fn:string
// rules (empty sequence becomes "").
func (st *evalState) stringArg(e *xquery.FuncCall, i int, en *env, c ctx) (string, error) {
	if i >= len(e.Args) {
		return "", fmt.Errorf("interp: %s: missing argument %d", e.Name, i+1)
	}
	v, err := st.atomize(e.Args[i], en, c)
	if err != nil {
		return "", err
	}
	switch len(v) {
	case 0:
		return "", nil
	case 1:
		return v[0].StringValue(), nil
	default:
		return "", fmt.Errorf("interp: %s: argument %d is a sequence", e.Name, i+1)
	}
}
