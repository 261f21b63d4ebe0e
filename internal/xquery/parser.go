package xquery

import (
	"strings"

	"repro/internal/qerr"
	"repro/internal/xdm"
)

// Parse parses a complete query (prolog + body) into a Module. Parse
// never panics: parser bugs tripped by hostile input surface as
// qerr.ErrInternal, syntax errors as positioned qerr.ErrParse values.
func Parse(src string) (m *Module, err error) {
	defer qerr.RecoverInto("parse", &err)
	p := &parser{lex: newLexer(src)}
	m, err = p.parseModule()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// maxParseDepth bounds expression nesting. Every recursive descent into a
// sub-expression passes through parseExprSingle or the direct element
// constructor, so bounding those two sites bounds the parser's (and every
// later phase's) stack: a hostile query of 100k open parentheses is a
// parse error, not a fatal stack exhaustion no recover() could catch.
const maxParseDepth = 500

type parser struct {
	lex   *lexer
	depth int
}

// enter guards one level of expression nesting; callers must pair it with
// leave. It returns a positioned parse error past maxParseDepth.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.lex.errAt(p.lex.pos, "expression nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) err(t token, format string, args ...any) error {
	return p.lex.errAt(t.pos, format, args...)
}

// expectSym consumes the next token, requiring it to be the given symbol.
func (p *parser) expectSym(s string) error {
	t := p.lex.next()
	if !t.isSym(s) {
		return p.err(t, "expected %q, found %q", s, t.String())
	}
	return nil
}

// expectName consumes the next token, requiring the given keyword.
func (p *parser) expectName(s string) error {
	t := p.lex.next()
	if !t.isName(s) {
		return p.err(t, "expected %q, found %q", s, t.String())
	}
	return nil
}

// parseVarName parses "$name".
func (p *parser) parseVarName() (string, error) {
	if err := p.expectSym("$"); err != nil {
		return "", err
	}
	t := p.lex.next()
	if t.kind != tName {
		return "", p.err(t, "expected variable name, found %q", t.String())
	}
	return t.text, nil
}

func (p *parser) parseModule() (*Module, error) {
	m := &Module{Ordering: Ordered}
	// Optional version declaration.
	if p.lex.peek().isName("xquery") && p.lex.peekN(1).isName("version") {
		p.lex.next()
		p.lex.next()
		if t := p.lex.next(); t.kind != tStr {
			return nil, p.err(t, "expected version string")
		}
		if err := p.expectSym(";"); err != nil {
			return nil, err
		}
	}
	// Prolog declarations.
	for p.lex.peek().isName("declare") {
		p.lex.next()
		t := p.lex.next()
		switch {
		case t.isName("ordering"):
			mode := p.lex.next()
			switch {
			case mode.isName("ordered"):
				m.Ordering = Ordered
			case mode.isName("unordered"):
				m.Ordering = Unordered
			default:
				return nil, p.err(mode, "expected ordered or unordered")
			}
			if err := p.expectSym(";"); err != nil {
				return nil, err
			}
		case t.isName("function"):
			fd, err := p.parseFuncDecl()
			if err != nil {
				return nil, err
			}
			m.Functions = append(m.Functions, fd)
		case t.isName("variable"):
			vd, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			m.Variables = append(m.Variables, vd)
		default:
			return nil, p.err(t, "unsupported declaration %q", t.String())
		}
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.lex.next(); t.kind != tEOF {
		return nil, p.err(t, "unexpected trailing %q", t.String())
	}
	m.Body = body
	return m, nil
}

// parseSeqType consumes a sequence type (QName with optional occurrence
// indicator, or empty-sequence()); the text is recorded but not enforced.
func (p *parser) parseSeqType() (string, error) {
	t := p.lex.next()
	if t.kind != tName {
		return "", p.err(t, "expected type name, found %q", t.String())
	}
	typ := t.text
	if p.lex.peek().isSym("(") { // empty-sequence(), item()
		p.lex.next()
		if err := p.expectSym(")"); err != nil {
			return "", err
		}
		typ += "()"
	}
	if pk := p.lex.peek(); pk.isSym("?") || pk.isSym("*") || pk.isSym("+") {
		typ += p.lex.next().text
	}
	return typ, nil
}

// parseVarDecl parses "declare variable $x [as type] (external | := e);"
// with the leading keywords already consumed.
func (p *parser) parseVarDecl() (*VarDecl, error) {
	name, err := p.parseVarName()
	if err != nil {
		return nil, err
	}
	vd := &VarDecl{Name: name}
	if p.lex.peek().isName("as") {
		p.lex.next()
		if vd.Type, err = p.parseSeqType(); err != nil {
			return nil, err
		}
	}
	t := p.lex.next()
	switch {
	case t.isName("external"):
		vd.External = true
	case t.isSym(":="):
		if vd.Init, err = p.parseExprSingle(); err != nil {
			return nil, err
		}
	default:
		return nil, p.err(t, "expected external or := in variable declaration")
	}
	if err := p.expectSym(";"); err != nil {
		return nil, err
	}
	return vd, nil
}

func (p *parser) parseFuncDecl() (*FuncDecl, error) {
	t := p.lex.next()
	if t.kind != tName {
		return nil, p.err(t, "expected function name")
	}
	fd := &FuncDecl{Name: t.text}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	if !p.lex.peek().isSym(")") {
		for {
			name, err := p.parseVarName()
			if err != nil {
				return nil, err
			}
			param := Param{Name: name}
			if p.lex.peek().isName("as") {
				p.lex.next()
				param.Type, err = p.parseSeqType()
				if err != nil {
					return nil, err
				}
			}
			fd.Params = append(fd.Params, param)
			if !p.lex.peek().isSym(",") {
				break
			}
			p.lex.next()
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if p.lex.peek().isName("as") {
		p.lex.next()
		var err error
		fd.Result, err = p.parseSeqType()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	if err := p.expectSym(";"); err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// parseExpr parses a comma-separated sequence expression.
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if !p.lex.peek().isSym(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.lex.peek().isSym(",") {
		p.lex.next()
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &Sequence{Items: items}, nil
}

func (p *parser) parseExprSingle() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.lex.peek()
	switch {
	case (t.isName("for") || t.isName("let")) && p.lex.peekN(1).isSym("$"):
		return p.parseFLWOR()
	case (t.isName("some") || t.isName("every")) && p.lex.peekN(1).isSym("$"):
		return p.parseQuantified()
	case t.isName("if") && p.lex.peekN(1).isSym("("):
		return p.parseIf()
	default:
		return p.parseOr()
	}
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWOR{}
	for {
		t := p.lex.peek()
		switch {
		case t.isName("for") && p.lex.peekN(1).isSym("$"):
			p.lex.next()
			for {
				v, err := p.parseVarName()
				if err != nil {
					return nil, err
				}
				fc := &ForClause{Var: v}
				if p.lex.peek().isName("at") {
					p.lex.next()
					fc.PosVar, err = p.parseVarName()
					if err != nil {
						return nil, err
					}
				}
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
				fc.In, err = p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, fc)
				if !p.lex.peek().isSym(",") {
					break
				}
				p.lex.next()
			}
		case t.isName("let") && p.lex.peekN(1).isSym("$"):
			p.lex.next()
			for {
				v, err := p.parseVarName()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(":="); err != nil {
					return nil, err
				}
				e, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, &LetClause{Var: v, Expr: e})
				if !p.lex.peek().isSym(",") {
					break
				}
				p.lex.next()
			}
		default:
			goto clausesDone
		}
	}
clausesDone:
	if len(fl.Clauses) == 0 {
		return nil, p.err(p.lex.peek(), "FLWOR without for/let clause")
	}
	if p.lex.peek().isName("where") {
		p.lex.next()
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.lex.peek().isName("stable") && p.lex.peekN(1).isName("order") {
		p.lex.next()
		fl.Stable = true
	}
	if p.lex.peek().isName("order") {
		p.lex.next()
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: key}
			if pk := p.lex.peek(); pk.isName("ascending") {
				p.lex.next()
			} else if pk.isName("descending") {
				p.lex.next()
				spec.Descending = true
			}
			if p.lex.peek().isName("empty") {
				p.lex.next()
				e := p.lex.next()
				switch {
				case e.isName("greatest"):
					spec.EmptyGreatest = true
				case e.isName("least"):
				default:
					return nil, p.err(e, "expected greatest or least")
				}
			}
			fl.Order = append(fl.Order, spec)
			if !p.lex.peek().isSym(",") {
				break
			}
			p.lex.next()
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

func (p *parser) parseQuantified() (Expr, error) {
	q := &Quantified{Every: p.lex.next().isName("every")}
	for {
		v, err := p.parseVarName()
		if err != nil {
			return nil, err
		}
		if err := p.expectName("in"); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		q.Vars = append(q.Vars, QVar{Var: v, In: e})
		if !p.lex.peek().isSym(",") {
			break
		}
		p.lex.next()
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	s, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = s
	return q, nil
}

func (p *parser) parseIf() (Expr, error) {
	p.lex.next() // if
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().isName("or") {
		p.lex.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Logic{Op: LogicOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().isName("and") {
		p.lex.next()
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &Logic{Op: LogicAnd, L: l, R: r}
	}
	return l, nil
}

var generalCmpSyms = map[string]xdm.CmpOp{
	"=": xdm.CmpEq, "!=": xdm.CmpNe, "<": xdm.CmpLt,
	"<=": xdm.CmpLe, ">": xdm.CmpGt, ">=": xdm.CmpGe,
}

var valueCmpNames = map[string]xdm.CmpOp{
	"eq": xdm.CmpEq, "ne": xdm.CmpNe, "lt": xdm.CmpLt,
	"le": xdm.CmpLe, "gt": xdm.CmpGt, "ge": xdm.CmpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	t := p.lex.peek()
	if t.kind == tSym {
		if op, ok := generalCmpSyms[t.text]; ok {
			p.lex.next()
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			return &GeneralCmp{Op: op, L: l, R: r}, nil
		}
		if t.text == "<<" || t.text == ">>" {
			p.lex.next()
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			op := NodeBefore
			if t.text == ">>" {
				op = NodeAfter
			}
			return &NodeCmp{Op: op, L: l, R: r}, nil
		}
	}
	if t.kind == tName {
		if op, ok := valueCmpNames[t.text]; ok {
			p.lex.next()
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			return &ValueCmp{Op: op, L: l, R: r}, nil
		}
		if t.text == "is" {
			p.lex.next()
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			return &NodeCmp{Op: NodeIs, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseRange() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.lex.peek().isName("to") {
		p.lex.next()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &RangeExpr{L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lex.peek()
		var op xdm.ArithOp
		switch {
		case t.isSym("+"):
			op = xdm.OpAdd
		case t.isSym("-"):
			op = xdm.OpSub
		default:
			return l, nil
		}
		p.lex.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lex.peek()
		var op xdm.ArithOp
		switch {
		case t.isSym("*"):
			op = xdm.OpMul
		case t.isName("div"):
			op = xdm.OpDiv
		case t.isName("idiv"):
			op = xdm.OpIDiv
		case t.isName("mod"):
			op = xdm.OpMod
		default:
			return l, nil
		}
		p.lex.next()
		r, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		l = &Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnion() (Expr, error) {
	l, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().isSym("|") || p.lex.peek().isName("union") {
		p.lex.next()
		r, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		l = &SetOp{Kind: SetUnion, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseIntersectExcept() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lex.peek()
		var kind SetOpKind
		switch {
		case t.isName("intersect"):
			kind = SetIntersect
		case t.isName("except"):
			kind = SetExcept
		default:
			return l, nil
		}
		p.lex.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &SetOp{Kind: kind, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	neg := false
	for {
		t := p.lex.peek()
		if t.isSym("-") {
			p.lex.next()
			neg = !neg
			continue
		}
		if t.isSym("+") {
			p.lex.next()
			continue
		}
		break
	}
	e, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if neg {
		return &Neg{Expr: e}, nil
	}
	return e, nil
}

// parsePath parses a relative path expression: a first step (primary or
// axis step) followed by /step or //step segments.
func (p *parser) parsePath() (Expr, error) {
	if t := p.lex.peek(); t.isSym("/") || t.isSym("//") {
		return nil, p.err(t, "absolute paths are unsupported; navigate from fn:doc()")
	}
	var start Expr
	var steps []Step
	if p.startsAxisStep() {
		st, err := p.parseAxisStep()
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	} else {
		e, err := p.parsePostfix()
		if err != nil {
			return nil, err
		}
		start = e
	}
	finish := func() Expr {
		if len(steps) == 0 {
			return start
		}
		e := &Path{Start: start, Steps: steps}
		start, steps = e, nil
		return e
	}
	for {
		t := p.lex.peek()
		if t.isSym("//") {
			p.lex.next()
			steps = append(steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}})
		} else if t.isSym("/") {
			p.lex.next()
		} else {
			break
		}
		// A path segment is an axis step, or the parenthesized name-test
		// union of the paper's running example, e/(c|d), which lowers to
		// e/child::c | e/child::d over the shared base e (the compiler's
		// DAG hash-consing reunifies the base, cf. Figure 10).
		if p.lex.peek().isSym("(") {
			tests, err := p.parseParenTests()
			if err != nil {
				return nil, err
			}
			base := finish()
			if base == nil {
				return nil, p.err(t, "parenthesized step without a base expression")
			}
			var u Expr
			for _, nt := range tests {
				branch := &Path{Start: base, Steps: []Step{{Axis: AxisChild, Test: nt}}}
				if u == nil {
					u = branch
				} else {
					u = &SetOp{Kind: SetUnion, L: u, R: branch}
				}
			}
			start, steps = u, nil
			continue
		}
		st, err := p.parseAxisStep()
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return start, nil
	}
	return &Path{Start: start, Steps: steps}, nil
}

// parseParenTests parses the (nt1|nt2|…) path segment form: a
// parenthesized union of node tests, as in $t//(c|d).
func (p *parser) parseParenTests() ([]NodeTest, error) {
	open := p.lex.next() // consume "("
	var names []NodeTest
	for {
		t := p.lex.next()
		var nt NodeTest
		switch {
		case t.isSym("*"):
			nt = NodeTest{Kind: TestWild}
		case t.kind == tName:
			var err error
			nt, err = p.finishNodeTest(t)
			if err != nil {
				return nil, err
			}
		default:
			return nil, p.err(t, "expected name test in parenthesized step")
		}
		names = append(names, nt)
		nxt := p.lex.next()
		if nxt.isSym("|") {
			continue
		}
		if nxt.isSym(")") {
			break
		}
		return nil, p.err(nxt, "expected | or ) in parenthesized step")
	}
	if len(names) == 0 {
		return nil, p.err(open, "empty parenthesized step")
	}
	return names, nil
}

// startsAxisStep reports whether the upcoming tokens begin an axis step
// rather than a primary expression.
func (p *parser) startsAxisStep() bool {
	t := p.lex.peek()
	switch {
	case t.isSym("@"), t.isSym(".."), t.isSym("*"):
		return true
	case t.kind == tName:
		n1 := p.lex.peekN(1)
		if n1.isSym("::") {
			return true
		}
		if n1.isSym("(") {
			// node()/text() are node tests; any other name( is a function.
			return t.text == "node" || t.text == "text"
		}
		// A bare name is a child step unless it is a keyword that starts
		// an expression (callers only reach here in expression position
		// where FLWOR/if/quantified were already dispatched).
		switch t.text {
		case "ordered", "unordered":
			return !n1.isSym("{")
		}
		return true
	default:
		return false
	}
}

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"self":               AxisSelf,
	"attribute":          AxisAttribute,
	"parent":             AxisParent,
}

func (p *parser) parseAxisStep() (Step, error) {
	t := p.lex.next()
	var st Step
	switch {
	case t.isSym(".."):
		st = Step{Axis: AxisParent, Test: NodeTest{Kind: TestNode}}
	case t.isSym("@"):
		nt, err := p.parseNodeTest()
		if err != nil {
			return Step{}, err
		}
		st = Step{Axis: AxisAttribute, Test: nt}
	case t.isSym("*"):
		st = Step{Axis: AxisChild, Test: NodeTest{Kind: TestWild}}
	case t.kind == tName && p.lex.peek().isSym("::"):
		axis, ok := axisNames[t.text]
		if !ok {
			return Step{}, p.err(t, "unsupported axis %q", t.text)
		}
		p.lex.next()
		nt, err := p.parseNodeTest()
		if err != nil {
			return Step{}, err
		}
		st = Step{Axis: axis, Test: nt}
	case t.kind == tName:
		nt, err := p.finishNodeTest(t)
		if err != nil {
			return Step{}, err
		}
		st = Step{Axis: AxisChild, Test: nt}
	default:
		return Step{}, p.err(t, "expected location step, found %q", t.String())
	}
	preds, err := p.parsePredicates()
	if err != nil {
		return Step{}, err
	}
	st.Preds = preds
	return st, nil
}

func (p *parser) parseNodeTest() (NodeTest, error) {
	t := p.lex.next()
	if t.isSym("*") {
		return NodeTest{Kind: TestWild}, nil
	}
	if t.kind != tName {
		return NodeTest{}, p.err(t, "expected node test, found %q", t.String())
	}
	return p.finishNodeTest(t)
}

func (p *parser) finishNodeTest(t token) (NodeTest, error) {
	if (t.text == "node" || t.text == "text") && p.lex.peek().isSym("(") {
		p.lex.next()
		if err := p.expectSym(")"); err != nil {
			return NodeTest{}, err
		}
		if t.text == "node" {
			return NodeTest{Kind: TestNode}, nil
		}
		return NodeTest{Kind: TestText}, nil
	}
	return NodeTest{Kind: TestName, Name: t.text}, nil
}

func (p *parser) parsePredicates() ([]Expr, error) {
	var preds []Expr
	for p.lex.peek().isSym("[") {
		p.lex.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("]"); err != nil {
			return nil, err
		}
		preds = append(preds, e)
	}
	return preds, nil
}

// parsePostfix parses a primary expression followed by predicates.
func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	preds, err := p.parsePredicates()
	if err != nil {
		return nil, err
	}
	if len(preds) > 0 {
		return &Filter{Base: e, Preds: preds}, nil
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.lex.peek()
	switch {
	case t.kind == tInt:
		p.lex.next()
		return &IntLit{Val: t.i}, nil
	case t.kind == tDec:
		p.lex.next()
		return &DecLit{Val: t.f}, nil
	case t.kind == tStr:
		p.lex.next()
		return &StrLit{Val: t.s}, nil
	case t.isSym("$"):
		name, err := p.parseVarName()
		if err != nil {
			return nil, err
		}
		return &VarRef{Name: name}, nil
	case t.isSym("."):
		p.lex.next()
		return &ContextItem{}, nil
	case t.isSym("("):
		p.lex.next()
		if p.lex.peek().isSym(")") {
			p.lex.next()
			return &EmptySeq{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.isSym("<"):
		return p.parseDirectConstructor()
	case (t.isName("ordered") || t.isName("unordered")) && p.lex.peekN(1).isSym("{"):
		p.lex.next()
		mode := Ordered
		if t.isName("unordered") {
			mode = Unordered
		}
		if err := p.expectSym("{"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("}"); err != nil {
			return nil, err
		}
		return &OrderedExpr{Mode: mode, Expr: e}, nil
	case t.kind == tName && p.lex.peekN(1).isSym("("):
		return p.parseFuncCall()
	default:
		return nil, p.err(t, "unexpected %q", t.String())
	}
}

func (p *parser) parseFuncCall() (Expr, error) {
	t := p.lex.next()
	name := strings.TrimPrefix(t.text, "fn:")
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.lex.peek().isSym(")") {
		for {
			a, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.lex.peek().isSym(",") {
				break
			}
			p.lex.next()
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &FuncCall{Name: name, Args: args}, nil
}
