// Package algebra defines the restricted relational algebra dialect that
// the eXrQuy compiler targets (Table 1 of the paper) and the plan DAG
// infrastructure: hash-consed construction (Pathfinder-emitted code is a
// DAG with substantial sharing), schema inference, pretty printing, and
// plan statistics.
//
// The two operators at the heart of the paper are both here:
//
//   - OpRowNum (ρ, written % in the paper) — grouped row numbering over
//     sort criteria; its implementation requires a blocking sort and is
//     where the cost of XQuery's order semantics concentrates;
//   - OpRowID (#) — arbitrary unique row numbering; order indifference is
//     realized by trading ρ for # and letting column dependency analysis
//     (package opt) erase the dead order bookkeeping.
package algebra

import (
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// OpKind enumerates the operators of the algebra.
type OpKind uint8

// Operators. The first group mirrors Table 1 of the paper; the second
// group makes explicit a few primitives Pathfinder composes from lower
// level pieces (EBV, cardinality checks, node construction), which keeps
// plans analyzable without changing the order story.
const (
	OpLit       OpKind = iota // literal table
	OpProject                 // π: projection with renaming, no dedup
	OpSelect                  // σ: keep rows whose column is true
	OpJoin                    // ⋈: join on one column per side — equality of keys, or a general comparison of values (JoinMode)
	OpCross                   // ×: Cartesian product
	OpRowNum                  // ρ (%): grouped, sorted, dense row numbering — a sort
	OpRowID                   // #: arbitrary unique row ids — (almost) free
	OpBinOp                   // ⊕: item-level binary operation
	OpMap1                    // unary item-level mapping (atomize, string, not, …)
	OpUnion                   // ∪.: disjoint union (append)
	OpSemi                    // semijoin: rows of L with a key match in R
	OpDiff                    // anti-semijoin: rows of L with no key match in R
	OpDistinct                // duplicate elimination on a column list
	OpAggr                    // grouped aggregation
	OpStep                    // ⤋ax::nt: XPath step evaluation (staircase join)
	OpDoc                     // document access (fn:doc)
	OpElem                    // element construction (a template of nested elements)
	OpRange                   // integer range expansion (e1 to e2)
	OpCheckCard               // cardinality guard (zero-or-one & friends)

	numOpKinds = iota
)

// String names the operator like the paper does.
func (k OpKind) String() string {
	switch k {
	case OpLit:
		return "table"
	case OpProject:
		return "project"
	case OpSelect:
		return "select"
	case OpJoin:
		return "join"
	case OpCross:
		return "cross"
	case OpRowNum:
		return "rownum"
	case OpRowID:
		return "rowid"
	case OpBinOp:
		return "binop"
	case OpMap1:
		return "map1"
	case OpUnion:
		return "union"
	case OpSemi:
		return "semijoin"
	case OpDiff:
		return "difference"
	case OpDistinct:
		return "distinct"
	case OpAggr:
		return "aggr"
	case OpStep:
		return "step"
	case OpDoc:
		return "doc"
	case OpElem:
		return "element"
	case OpRange:
		return "range"
	case OpCheckCard:
		return "checkcard"
	default:
		return "?"
	}
}

// BinFn enumerates item-level binary functions for OpBinOp.
type BinFn uint8

// Binary functions.
const (
	BArithAdd BinFn = iota
	BArithSub
	BArithMul
	BArithDiv
	BArithIDiv
	BArithMod
	BCmpGen // general comparison semantics (untyped coerces to the other side)
	BCmpVal // value comparison semantics (untyped is string)
	BNodeBefore
	BNodeIs
	BAnd
	BOr
	BConcat
	BContains
	BStartsWith
	BEndsWith
	BSubstr2 // substring(s, start)
	BSubstr3 // substring(s, start, len) — uses the third operand TCol
)

// JoinMode selects which (left, right) row pairs an OpJoin emits.
type JoinMode uint8

// Join modes. The two θ modes are the value join the compiler recognises
// in a general comparison between loop-invariant operands: the join
// enumerates (LCol, RCol) value combinations across iterations, so a pair
// whose comparison is a type error must not raise by itself — it does not
// match under JoinTheta and is what JoinIncomparable emits, from which the
// compiler rebuilds the per-iteration error.
const (
	JoinEqui         JoinMode = iota // LCol and RCol hold equal keys (iteration ids, ranks)
	JoinTheta                        // the general comparison LCol Cmp RCol holds
	JoinIncomparable                 // the general comparison LCol Cmp RCol raises a type error
)

// UnFn enumerates item-level unary functions for OpMap1.
type UnFn uint8

// Unary functions.
const (
	UnAtomize UnFn = iota // node → untypedAtomic string value
	UnString              // atomize, then cast to xs:string
	UnNumber              // fn:number: cast to double, NaN on failure
	UnStringLength
	UnNot
	UnNeg
	UnNameOf
	UnRoot
	UnToDouble // arithmetic coercion: untypedAtomic → xs:double
	UnNormalizeSpace
	UnUpperCase
	UnLowerCase
	UnRound
	UnFloor
	UnCeiling
	UnAbs
)

// AggrFn enumerates grouped aggregation functions.
type AggrFn uint8

// Aggregation functions. AggrStrJoin is the order-sensitive string
// concatenation of fn:string-join (it consumes the pos column, so it keeps
// order alive where XQuery demands it).
const (
	AggrCount AggrFn = iota
	AggrSum
	AggrAvg
	AggrMax
	AggrMin
	// AggrStrJoin joins group members' string values in pos order; the
	// separator travels in Node.Name.
	AggrStrJoin
	// AggrEbv computes the effective boolean value of each group (empty
	// groups are simply absent; the compiler fills them with false where
	// needed). Like count, it ignores pos — EBV is one of the paper's
	// order-indifferent contexts (§2.2, item (e)).
	AggrEbv
)

// String names the aggregate.
func (f AggrFn) String() string {
	switch f {
	case AggrCount:
		return "count"
	case AggrSum:
		return "sum"
	case AggrAvg:
		return "avg"
	case AggrMax:
		return "max"
	case AggrMin:
		return "min"
	case AggrEbv:
		return "ebv"
	default:
		return "strjoin"
	}
}

// TmplKind enumerates the instructions of a constructor template.
type TmplKind uint8

// Template instructions. A template is one tree of directly nested
// element constructors in preorder: every TElem is closed by a TEnd, and
// an element's TAttr instructions, each followed by the TValue parts of
// its value, come before its content.
const (
	TElem    TmplKind = iota // open an element named Text
	TEnd                     // close the innermost open element
	TAttr                    // an attribute of the open element, named Text
	TValue                   // part of the last TAttr's value: literal Text, or slot Slot's items atomized and joined by spaces
	TContent                 // element content: literal text Text, or slot Slot's items under the element-content rules
)

// Tmpl is one instruction of an OpElem template. Slot indexes the
// operator's inputs (Ins[0] is the loop, so slots count from 1); 0 marks
// a literal.
type Tmpl struct {
	Kind TmplKind
	Text string
	Slot int
}

// ColPair is one output column of a projection: New takes the value of Old.
type ColPair struct {
	New string
	Old string
}

// SortSpec is one sort criterion of OpRowNum.
type SortSpec struct {
	Col           string
	Desc          bool
	EmptyGreatest bool // KNull sorts above everything instead of below
}

// Node is one operator in a plan DAG. A single struct serves all operator
// kinds (only the fields documented for a kind are meaningful), which
// keeps structural hashing and rewriting straightforward; Builder.mk
// canonicalizes nodes so structural equality implies pointer equality.
type Node struct {
	ID   int
	Kind OpKind
	Ins  []*Node

	Cols []string        // OpLit: column names; OpSemi/OpDiff/OpDistinct: key columns
	Rows [][]xdm.Item    // OpLit: row data
	Proj []ColPair       // OpProject
	Col  string          // OpSelect: bool column; OpRowID: new column; OpAggr: value column; OpCheckCard: group column
	LCol string          // OpJoin: left key/operand; OpBinOp: left operand; OpMap1: operand
	RCol string          // OpJoin: right key/operand; OpBinOp: right operand
	TCol string          // OpBinOp: third operand (ternary functions only)
	Res  string          // OpRowNum/OpBinOp/OpMap1/OpAggr: result column
	Sort []SortSpec      // OpRowNum
	Part string          // OpRowNum/OpAggr: partition/group column ("" = single group)
	BFn  BinFn           // OpBinOp
	Cmp  xdm.CmpOp       // OpBinOp with BCmpGen/BCmpVal; OpJoin in a θ mode
	Mode JoinMode        // OpJoin
	UFn  UnFn            // OpMap1
	AFn  AggrFn          // OpAggr
	Axis xquery.Axis     // OpStep
	Test xquery.NodeTest // OpStep
	URI  string          // OpDoc
	Name string          // OpAggr strjoin: separator
	Min  int             // OpCheckCard: minimum group cardinality
	Max  int             // OpCheckCard: maximum group cardinality (-1 = unbounded)
	Ser  int             // OpElem: constructor serial (blocks sharing: constructors create fresh node identity)
	Tmpl []Tmpl          // OpElem: the constructed tree; Ins[1:] are its slots
	Disj string          // OpUnion: column on which the compiler asserts the inputs are disjoint ("" = none); drives key inference (§7)

	// Origin tags the XQuery construct this operator implements; the
	// engine's profiler aggregates evaluation time by origin to reproduce
	// Table 2. Not part of the structural signature.
	Origin string

	// Par marks the operator as parallel-safe: the plan provably does not
	// observe the physical row order of this operator's output, so a
	// partitioned (morsel-wise) evaluation is admissible. Set by the
	// optimizer's parallel region analysis (opt.MarkParallel) when a
	// parallel execution is requested; not part of the structural
	// signature.
	Par bool

	schema []string
}

// Schema returns the output column list of the node.
func (n *Node) Schema() []string { return n.schema }

// ColIndex returns the position of col in the output schema, or -1.
func (n *Node) ColIndex(col string) int {
	for i, c := range n.schema {
		if c == col {
			return i
		}
	}
	return -1
}

// HasCol reports whether the output schema contains col.
func (n *Node) HasCol(col string) bool { return n.ColIndex(col) >= 0 }
