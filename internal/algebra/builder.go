package algebra

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// Builder constructs hash-consed plan DAGs: structurally identical
// operator trees become a single shared node, mirroring the sharing in
// Pathfinder-emitted code (the same path expression compiled twice costs
// once). Element constructors are exempt — XQuery constructors create
// fresh node identity per evaluation, so they carry a serial that defeats
// sharing.
type Builder struct {
	interned map[string]*Node
	key      []byte // scratch for mk's intern key, reused across calls
	nextID   int
	nextSer  int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{interned: make(map[string]*Node)}
}

// mk canonicalizes a node: it returns the shared instance for the
// node's structure, computing the schema and validating the operator's
// invariants when the structure is new (a hit was validated when it
// was interned).
func (b *Builder) mk(n Node) *Node {
	b.key = appendKey(b.key[:0], &n)
	if ex, ok := b.interned[string(b.key)]; ok {
		return ex
	}
	n.schema = computeSchema(&n)
	// Column names are unique within a schema: consumers (and the
	// optimizer's per-slot tables) address a column by name or by
	// position interchangeably.
	for i, c := range n.schema {
		for _, d := range n.schema[:i] {
			if c == d {
				panic(fmt.Sprintf("algebra: %s with duplicate column %q", n.Kind, c))
			}
		}
	}
	n.ID = b.nextID
	b.nextID++
	heap := n
	b.interned[string(b.key)] = &heap
	return &heap
}

// appendKey appends the intern key of n: every structural parameter
// (all of Node but ID, Origin, Par and the derived schema) in a fixed
// field order, scalars as varints, strings and lists prefixed by their
// length. The encoding decodes unambiguously, so it is injective: no
// user-supplied name, URI or literal can make two different nodes
// share a key. Inputs are canonical already and go in by ID.
func appendKey(k []byte, n *Node) []byte {
	k = append(k, byte(n.Kind), byte(n.BFn), byte(n.Cmp), byte(n.Mode), byte(n.UFn), byte(n.AFn), byte(n.Axis), byte(n.Test.Kind))
	for _, v := range [...]int{n.Min, n.Max, n.Ser, len(n.Ins)} {
		k = binary.AppendVarint(k, int64(v))
	}
	k = binary.AppendUvarint(k, uint64(len(n.Tmpl)))
	for _, t := range n.Tmpl {
		k = binary.AppendVarint(appendStr(append(k, byte(t.Kind)), t.Text), int64(t.Slot))
	}
	for _, in := range n.Ins {
		k = binary.AppendVarint(k, int64(in.ID))
	}
	for _, s := range [...]string{n.Col, n.LCol, n.RCol, n.TCol, n.Res, n.Part, n.URI, n.Name, n.Disj, n.Test.Name} {
		k = appendStr(k, s)
	}
	k = binary.AppendUvarint(k, uint64(len(n.Cols)))
	for _, c := range n.Cols {
		k = appendStr(k, c)
	}
	k = binary.AppendUvarint(k, uint64(len(n.Proj)))
	for _, p := range n.Proj {
		k = appendStr(appendStr(k, p.New), p.Old)
	}
	k = binary.AppendUvarint(k, uint64(len(n.Sort)))
	for _, s := range n.Sort {
		k = appendStr(k, s.Col)
		k = append(k, boolByte(s.Desc)|boolByte(s.EmptyGreatest)<<1)
	}
	k = binary.AppendUvarint(k, uint64(len(n.Rows)))
	for _, r := range n.Rows {
		k = binary.AppendUvarint(k, uint64(len(r)))
		for _, it := range r {
			k = append(k, byte(it.Kind))
			k = binary.AppendVarint(k, it.I)
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(it.F))
			k = appendStr(k, it.S)
			k = binary.AppendUvarint(k, uint64(it.N.Frag))
			k = binary.AppendVarint(k, int64(it.N.Pre))
		}
	}
	return k
}

func appendStr(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func schemaUnion(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// checkTmpl panics unless n's template is an element with one slot per
// input after the loop.
func checkTmpl(n *Node) {
	slots := 0
	for _, t := range n.Tmpl {
		if t.Slot != 0 {
			slots++
		}
	}
	if len(n.Tmpl) == 0 || n.Tmpl[0].Kind != TElem || slots != len(n.Ins)-1 {
		panic(fmt.Sprintf("algebra: element template over %d slots for %d inputs: %v", slots, len(n.Ins)-1, n.Tmpl))
	}
}

func requireCol(n *Node, in int, col string, op string) {
	if !n.Ins[in].HasCol(col) {
		panic(fmt.Sprintf("algebra: %s input %d lacks column %q (has %v)", op, in, col, n.Ins[in].Schema()))
	}
}

func computeSchema(n *Node) []string {
	switch n.Kind {
	case OpLit:
		return n.Cols
	case OpProject:
		out := make([]string, len(n.Proj))
		for i, p := range n.Proj {
			requireCol(n, 0, p.Old, "project")
			out[i] = p.New
		}
		return out
	case OpSelect:
		requireCol(n, 0, n.Col, "select")
		return n.Ins[0].Schema()
	case OpJoin:
		requireCol(n, 0, n.LCol, "join")
		requireCol(n, 1, n.RCol, "join")
		return schemaUnion(n.Ins[0].Schema(), n.Ins[1].Schema())
	case OpCross:
		return schemaUnion(n.Ins[0].Schema(), n.Ins[1].Schema())
	case OpRowNum:
		for _, s := range n.Sort {
			requireCol(n, 0, s.Col, "rownum")
		}
		if n.Part != "" {
			requireCol(n, 0, n.Part, "rownum")
		}
		return append(append([]string{}, n.Ins[0].Schema()...), n.Res)
	case OpRowID:
		return append(append([]string{}, n.Ins[0].Schema()...), n.Col)
	case OpBinOp:
		requireCol(n, 0, n.LCol, "binop")
		requireCol(n, 0, n.RCol, "binop")
		if n.TCol != "" {
			requireCol(n, 0, n.TCol, "binop")
		}
		return append(append([]string{}, n.Ins[0].Schema()...), n.Res)
	case OpMap1:
		requireCol(n, 0, n.LCol, "map1")
		return append(append([]string{}, n.Ins[0].Schema()...), n.Res)
	case OpUnion:
		l, r := n.Ins[0].Schema(), n.Ins[1].Schema()
		if len(l) != len(r) {
			panic(fmt.Sprintf("algebra: union schema mismatch %v vs %v", l, r))
		}
		ls := append([]string{}, l...)
		rs := append([]string{}, r...)
		sort.Strings(ls)
		sort.Strings(rs)
		for i := range ls {
			if ls[i] != rs[i] {
				panic(fmt.Sprintf("algebra: union schema mismatch %v vs %v", l, r))
			}
		}
		return l
	case OpSemi, OpDiff:
		for _, c := range n.Cols {
			requireCol(n, 0, c, n.Kind.String())
			requireCol(n, 1, c, n.Kind.String())
		}
		return n.Ins[0].Schema()
	case OpDistinct:
		for _, c := range n.Cols {
			requireCol(n, 0, c, "distinct")
		}
		return n.Cols
	case OpAggr:
		if n.AFn != AggrCount || n.Col != "" {
			requireCol(n, 0, n.Col, "aggr")
		}
		if n.AFn == AggrStrJoin {
			requireCol(n, 0, "pos", "aggr strjoin")
		}
		if n.Part != "" {
			requireCol(n, 0, n.Part, "aggr")
			return []string{n.Part, n.Res}
		}
		return []string{n.Res}
	case OpStep:
		requireCol(n, 0, "iter", "step")
		requireCol(n, 0, "item", "step")
		return []string{"iter", "item"}
	case OpDoc:
		return []string{"item"}
	case OpElem:
		requireCol(n, 0, "iter", "element")
		checkTmpl(n)
		for i := 1; i < len(n.Ins); i++ {
			for _, c := range [...]string{"iter", "pos", "item"} {
				requireCol(n, i, c, "element slot")
			}
		}
		return []string{"iter", "item"}
	case OpRange:
		requireCol(n, 0, "iter", "range")
		requireCol(n, 0, n.LCol, "range")
		requireCol(n, 0, n.RCol, "range")
		return []string{"iter", "pos", "item"}
	case OpCheckCard:
		requireCol(n, 0, n.Col, "checkcard")
		if len(n.Ins) == 2 {
			requireCol(n, 1, n.Col, "checkcard loop")
		}
		return n.Ins[0].Schema()
	default:
		panic("algebra: unknown operator kind")
	}
}

// --- Construction helpers ---

// Lit builds a literal table.
func (b *Builder) Lit(cols []string, rows ...[]xdm.Item) *Node {
	return b.mk(Node{Kind: OpLit, Cols: cols, Rows: rows})
}

// LitCol builds a single-column, single-row literal table.
func (b *Builder) LitCol(col string, it xdm.Item) *Node {
	return b.Lit([]string{col}, []xdm.Item{it})
}

// EmptyLit builds an empty literal table with the given columns.
func (b *Builder) EmptyLit(cols ...string) *Node {
	return b.mk(Node{Kind: OpLit, Cols: cols})
}

// Project builds π with rename pairs.
func (b *Builder) Project(in *Node, proj ...ColPair) *Node {
	// Eliminate identity projections: π over exactly the input schema with
	// no renaming is a no-op.
	if len(proj) == len(in.Schema()) {
		identity := true
		for i, p := range proj {
			if p.New != p.Old || p.Old != in.Schema()[i] {
				identity = false
				break
			}
		}
		if identity {
			return in
		}
	}
	// Collapse chained projections: π(π(q)) = π(q) with composed pairs.
	if in.Kind == OpProject {
		composed := make([]ColPair, len(proj))
		for i, p := range proj {
			old := p.Old
			for _, q := range in.Proj {
				if q.New == old {
					old = q.Old
					break
				}
			}
			composed[i] = ColPair{New: p.New, Old: old}
		}
		return b.mk(Node{Kind: OpProject, Ins: []*Node{in.Ins[0]}, Proj: composed})
	}
	return b.mk(Node{Kind: OpProject, Ins: []*Node{in}, Proj: proj})
}

// Keep is a projection that keeps columns under their own names.
func (b *Builder) Keep(in *Node, cols ...string) *Node {
	proj := make([]ColPair, len(cols))
	for i, c := range cols {
		proj[i] = ColPair{New: c, Old: c}
	}
	return b.Project(in, proj...)
}

// Select builds σ on a boolean column.
func (b *Builder) Select(in *Node, col string) *Node {
	return b.mk(Node{Kind: OpSelect, Ins: []*Node{in}, Col: col})
}

// Join builds an equi-join.
func (b *Builder) Join(l, r *Node, lcol, rcol string) *Node {
	return b.mk(Node{Kind: OpJoin, Ins: []*Node{l, r}, LCol: lcol, RCol: rcol})
}

// ThetaJoin builds a value join: the (l, r) row pairs for which the
// general comparison lcol cmp rcol holds (JoinTheta) or is a type error
// (JoinIncomparable).
func (b *Builder) ThetaJoin(l, r *Node, lcol, rcol string, cmp xdm.CmpOp, mode JoinMode) *Node {
	return b.mk(Node{Kind: OpJoin, Ins: []*Node{l, r}, LCol: lcol, RCol: rcol, Cmp: cmp, Mode: mode})
}

// Cross builds a Cartesian product.
func (b *Builder) Cross(l, r *Node) *Node {
	return b.mk(Node{Kind: OpCross, Ins: []*Node{l, r}})
}

// RowNum builds ρ (the paper's %): dense numbering res = 1,2,… per part
// group in sort order. This is the order-realizing, blocking operator.
func (b *Builder) RowNum(in *Node, res string, sort []SortSpec, part string) *Node {
	return b.mk(Node{Kind: OpRowNum, Ins: []*Node{in}, Res: res, Sort: sort, Part: part})
}

// RowID builds # — arbitrary unique numbers in a new column.
func (b *Builder) RowID(in *Node, col string) *Node {
	return b.mk(Node{Kind: OpRowID, Ins: []*Node{in}, Col: col})
}

// BinOp builds an item-level binary operator node.
func (b *Builder) BinOp(in *Node, fn BinFn, cmp xdm.CmpOp, res, l, r string) *Node {
	return b.mk(Node{Kind: OpBinOp, Ins: []*Node{in}, BFn: fn, Cmp: cmp, Res: res, LCol: l, RCol: r})
}

// BinOp3 builds a ternary item-level operator node (substring with length).
func (b *Builder) BinOp3(in *Node, fn BinFn, res, l, r, t string) *Node {
	return b.mk(Node{Kind: OpBinOp, Ins: []*Node{in}, BFn: fn, Res: res, LCol: l, RCol: r, TCol: t})
}

// AggrJoin builds the order-sensitive string join over pos with an
// explicit separator (fn:string-join; attribute value templates use " ").
func (b *Builder) AggrJoin(in *Node, res, val, part, sep string) *Node {
	return b.mk(Node{Kind: OpAggr, Ins: []*Node{in}, AFn: AggrStrJoin, Res: res, Col: val, Part: part, Name: sep})
}

// Map1 builds an item-level unary mapping node.
func (b *Builder) Map1(in *Node, fn UnFn, res, arg string) *Node {
	return b.mk(Node{Kind: OpMap1, Ins: []*Node{in}, UFn: fn, Res: res, LCol: arg})
}

// Union builds the disjoint union (append).
func (b *Builder) Union(l, r *Node) *Node {
	return b.mk(Node{Kind: OpUnion, Ins: []*Node{l, r}})
}

// UnionDisjoint is Union plus a compiler-asserted guarantee that the
// inputs carry disjoint value sets in column col (e.g. the two sides of
// an aggregate's empty-group fill partition the loop's iterations). The
// guarantee lets property inference preserve key-ness across the union —
// the hook the §7 rownum relaxation needs.
func (b *Builder) UnionDisjoint(l, r *Node, col string) *Node {
	return b.mk(Node{Kind: OpUnion, Ins: []*Node{l, r}, Disj: col})
}

// Semi keeps rows of l whose key (cols) appears in r.
func (b *Builder) Semi(l, r *Node, cols ...string) *Node {
	return b.mk(Node{Kind: OpSemi, Ins: []*Node{l, r}, Cols: cols})
}

// Diff keeps rows of l whose key (cols) does not appear in r.
func (b *Builder) Diff(l, r *Node, cols ...string) *Node {
	return b.mk(Node{Kind: OpDiff, Ins: []*Node{l, r}, Cols: cols})
}

// Distinct projects to cols and removes duplicates (nodes compare by
// identity, atomics by value).
func (b *Builder) Distinct(in *Node, cols ...string) *Node {
	return b.mk(Node{Kind: OpDistinct, Ins: []*Node{in}, Cols: cols})
}

// Aggr builds a grouped aggregate.
func (b *Builder) Aggr(in *Node, fn AggrFn, res, val, part string) *Node {
	return b.mk(Node{Kind: OpAggr, Ins: []*Node{in}, AFn: fn, Res: res, Col: val, Part: part})
}

// Step builds the XPath step operator ⤋ax::nt over (iter, item) context.
func (b *Builder) Step(in *Node, axis xquery.Axis, test xquery.NodeTest) *Node {
	return b.mk(Node{Kind: OpStep, Ins: []*Node{in}, Axis: axis, Test: test})
}

// Doc builds document access.
func (b *Builder) Doc(uri string) *Node {
	return b.mk(Node{Kind: OpDoc, URI: uri})
}

// Elem builds element construction: one new tree per iteration in loop,
// built by the template tmpl, whose slots are the iter|pos|item tables
// slots (Tmpl.Slot k reads slots[k-1]) in pos order.
func (b *Builder) Elem(tmpl []Tmpl, loop *Node, slots ...*Node) *Node {
	b.nextSer++
	return b.mk(Node{Kind: OpElem, Ins: append([]*Node{loop}, slots...), Tmpl: tmpl, Ser: b.nextSer})
}

// Range expands (lo, hi) integer pairs into one row per value.
func (b *Builder) Range(in *Node, lo, hi string) *Node {
	return b.mk(Node{Kind: OpRange, Ins: []*Node{in}, LCol: lo, RCol: hi})
}

// CheckCard guards group cardinalities (per distinct value of col) at
// runtime; max = -1 means unbounded. When loop is non-nil, every iteration
// of the loop is checked (so empty groups violate min ≥ 1); otherwise only
// groups present in the input are checked.
func (b *Builder) CheckCard(in, loop *Node, col string, min, max int, origin string) *Node {
	ins := []*Node{in}
	if loop != nil {
		ins = append(ins, loop)
	}
	n := b.mk(Node{Kind: OpCheckCard, Ins: ins, Col: col, Min: min, Max: max})
	if n.Origin == "" {
		n.Origin = origin
	}
	return n
}

// Rebuild re-creates a node with new inputs, preserving every parameter
// including the constructor serial (so rewritten element constructors keep
// their node-identity semantics). Returns the canonical shared instance.
func (b *Builder) Rebuild(n *Node, newIns []*Node) *Node {
	if len(newIns) == len(n.Ins) {
		same := true
		for i := range newIns {
			if newIns[i] != n.Ins[i] {
				same = false
				break
			}
		}
		if same {
			return n
		}
	}
	clone := *n
	clone.Ins = newIns
	out := b.mk(clone)
	if out.Origin == "" {
		out.Origin = n.Origin
	}
	return out
}

// RebuildWith is Rebuild plus a parameter mutation applied to the clone
// before canonicalization (used by optimizer rewrites that change sort
// criteria or tests in place).
func (b *Builder) RebuildWith(n *Node, newIns []*Node, mutate func(*Node)) *Node {
	clone := *n
	clone.Ins = newIns
	if mutate != nil {
		mutate(&clone)
	}
	out := b.mk(clone)
	if out.Origin == "" {
		out.Origin = n.Origin
	}
	return out
}

// WithOrigin tags a node (and not its inputs) with a profiling origin if
// it does not have one yet; returns the node for chaining.
func WithOrigin(n *Node, origin string) *Node {
	if n.Origin == "" {
		n.Origin = origin
	}
	return n
}

// --- Plan traversal and statistics ---

// Nodes returns the DAG nodes reachable from root in topological order
// (inputs before consumers). The order is the deterministic post-order
// of a depth-first walk following Ins left to right. The executor
// (internal/vm) evaluates operators in this order: the order fixes the
// sequence of a run's side effects (constructed-node allocation in the
// derived store), so every flattening of a plan — and the reference a
// test builds by hand — produces byte-identical results. It also makes
// register assignment stable: position in this slice is the operator's
// register slot.
//
// The visited mark is indexed by Node.ID, so root's DAG must come from
// one Builder (ids are unique per builder, not across builders).
func Nodes(root *Node) []*Node {
	var out []*Node
	seen := make([]bool, root.ID+1) // the root is usually the newest node
	var visit func(n *Node)
	visit = func(n *Node) {
		if n.ID >= len(seen) {
			seen = append(seen, make([]bool, n.ID+1-len(seen))...)
		}
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for _, in := range n.Ins {
			visit(in)
		}
		out = append(out, n)
	}
	visit(root)
	return out
}

// Stats summarizes a plan for the paper's plan-size discussions
// (Figure 6: 19 operators, 5 ρ; §4.1: 235 → 141 nodes for Q11).
type Stats struct {
	Operators int
	RowNums   int // ρ — each one is a blocking sort
	RowIDs    int // # — each one is (almost) free
	Steps     int
	Joins     int
	ByKind    [numOpKinds]int // indexed by OpKind
}

// PlanStats computes statistics for the DAG rooted at root.
func PlanStats(root *Node) Stats {
	var s Stats
	for _, n := range Nodes(root) {
		s.Operators++
		s.ByKind[n.Kind]++
	}
	s.RowNums, s.RowIDs = s.ByKind[OpRowNum], s.ByKind[OpRowID]
	s.Steps, s.Joins = s.ByKind[OpStep], s.ByKind[OpJoin]
	return s
}
