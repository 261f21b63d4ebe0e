package algebra

import (
	"fmt"
	"strconv"
	"strings"
)

// label renders a node the way the paper annotates its plan figures, e.g.
// "rownum pos1:<bind,pos>/iter1" for ρ or "step child::regions" for ⤋.
func label(n *Node) string {
	switch n.Kind {
	case OpLit:
		return fmt.Sprintf("table %v (%d rows)", n.Cols, len(n.Rows))
	case OpProject:
		parts := make([]string, len(n.Proj))
		for i, p := range n.Proj {
			if p.New == p.Old {
				parts[i] = p.New
			} else {
				parts[i] = p.New + ":" + p.Old
			}
		}
		return "project " + strings.Join(parts, ",")
	case OpSelect:
		return "select " + n.Col
	case OpJoin:
		switch n.Mode {
		case JoinTheta:
			return fmt.Sprintf("join %s %s %s", n.LCol, n.Cmp, n.RCol)
		case JoinIncomparable:
			return fmt.Sprintf("join incomparable(%s %s %s)", n.LCol, n.Cmp, n.RCol)
		}
		return fmt.Sprintf("join %s=%s", n.LCol, n.RCol)
	case OpCross:
		return "cross"
	case OpRowNum:
		keys := make([]string, len(n.Sort))
		for i, s := range n.Sort {
			keys[i] = s.Col
			if s.Desc {
				keys[i] += " desc"
			}
		}
		out := fmt.Sprintf("rownum %s:<%s>", n.Res, strings.Join(keys, ","))
		if n.Part != "" {
			out += "/" + n.Part
		}
		return out
	case OpRowID:
		return "rowid " + n.Col
	case OpBinOp:
		fn := map[BinFn]string{
			BArithAdd: "+", BArithSub: "-", BArithMul: "*", BArithDiv: "div",
			BArithIDiv: "idiv", BArithMod: "mod", BNodeBefore: "<<", BNodeIs: "is",
			BAnd: "and", BOr: "or", BConcat: "concat", BContains: "contains",
			BStartsWith: "starts-with", BEndsWith: "ends-with",
		}[n.BFn]
		if n.BFn == BCmpGen {
			fn = n.Cmp.String()
		}
		if n.BFn == BCmpVal {
			fn = "val" + n.Cmp.String()
		}
		return fmt.Sprintf("op %s:(%s %s %s)", n.Res, n.LCol, fn, n.RCol)
	case OpMap1:
		fn := map[UnFn]string{
			UnAtomize: "data", UnString: "string", UnNumber: "number",
			UnStringLength: "string-length", UnNot: "not", UnNeg: "neg",
			UnNameOf: "name", UnRoot: "root", UnToDouble: "to-double",
			UnNormalizeSpace: "normalize-space", UnUpperCase: "upper-case",
			UnLowerCase: "lower-case", UnRound: "round", UnFloor: "floor",
			UnCeiling: "ceiling", UnAbs: "abs",
		}[n.UFn]
		return fmt.Sprintf("map %s:%s(%s)", n.Res, fn, n.LCol)
	case OpUnion:
		return "union"
	case OpSemi:
		return "semijoin " + strings.Join(n.Cols, ",")
	case OpDiff:
		return "difference " + strings.Join(n.Cols, ",")
	case OpDistinct:
		return "distinct " + strings.Join(n.Cols, ",")
	case OpAggr:
		out := fmt.Sprintf("aggr %s:%s(%s)", n.Res, n.AFn, n.Col)
		if n.Part != "" {
			out += "/" + n.Part
		}
		return out
	case OpStep:
		return fmt.Sprintf("step %s::%s", n.Axis, n.Test)
	case OpDoc:
		return fmt.Sprintf("doc %q", n.URI)
	case OpElem:
		return "element " + tmplLabel(n.Tmpl)
	case OpRange:
		return fmt.Sprintf("range %s..%s", n.LCol, n.RCol)
	case OpCheckCard:
		return fmt.Sprintf("checkcard %d..%d/%s", n.Min, n.Max, n.Col)
	default:
		return n.Kind.String()
	}
}

// tmplLabel renders a constructor template the way it reads in a query,
// with {k} for slot k and literal content text Go-quoted.
func tmplLabel(tmpl []Tmpl) string {
	var sb strings.Builder
	var open []string
	for i, t := range tmpl {
		switch {
		case t.Kind == TElem:
			sb.WriteString("<" + t.Text)
			open = append(open, t.Text)
		case t.Kind == TEnd:
			sb.WriteString("</" + open[len(open)-1] + ">")
			open = open[:len(open)-1]
		case t.Kind == TAttr:
			sb.WriteString(" " + t.Text + `="`)
		case t.Slot != 0:
			fmt.Fprintf(&sb, "{%d}", t.Slot)
		case t.Kind == TValue:
			sb.WriteString(t.Text)
		default:
			sb.WriteString(strconv.Quote(t.Text))
		}
		next := TEnd
		if i+1 < len(tmpl) {
			next = tmpl[i+1].Kind
		}
		if (t.Kind == TAttr || t.Kind == TValue) && next != TValue {
			sb.WriteByte('"')
		}
		if t.Kind != TEnd && t.Kind != TContent && next != TAttr && next != TValue {
			sb.WriteByte('>')
		}
	}
	return sb.String()
}

// Label returns the human-readable operator label.
func Label(n *Node) string { return label(n) }

// Print renders the DAG rooted at root as an indented tree. Shared nodes
// are printed once; later references appear as "^id". Node ids are the
// stable join key between a rendered plan and any external per-node data:
// EXPLAIN ANALYZE matches measured obs.OpStats to these "#id" prefixes.
func Print(root *Node) string { return PrintAnnotated(root, nil) }

// PrintAnnotated renders like Print, appending annotate(n) (when non-nil)
// to every node's first-occurrence line. Back-references ("^id") are not
// annotated — the stats belong to the node, which is printed once.
func PrintAnnotated(root *Node, annotate func(n *Node) string) string {
	var sb strings.Builder
	printed := make(map[*Node]bool)
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if printed[n] {
			fmt.Fprintf(&sb, "%s^%d\n", indent, n.ID)
			return
		}
		printed[n] = true
		origin := ""
		if n.Origin != "" {
			origin = "  (" + n.Origin + ")"
		}
		par := ""
		if n.Par {
			par = " [par]"
		}
		annot := ""
		if annotate != nil {
			annot = annotate(n)
		}
		fmt.Fprintf(&sb, "%s#%d %s%s%s%s\n", indent, n.ID, label(n), par, origin, annot)
		for _, in := range n.Ins {
			rec(in, depth+1)
		}
	}
	rec(root, 0)
	return sb.String()
}

// Dot renders the DAG in Graphviz dot syntax; ρ nodes are highlighted
// (they are the sorts the paper's technique eliminates) and # nodes are
// drawn dashed.
func Dot(root *Node) string {
	var sb strings.Builder
	sb.WriteString("digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range Nodes(root) {
		attr := ""
		switch n.Kind {
		case OpRowNum:
			attr = ", style=filled, fillcolor=salmon"
		case OpRowID:
			attr = ", style=dashed"
		case OpStep:
			attr = ", style=filled, fillcolor=lightblue"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q%s];\n", n.ID, label(n), attr)
		for _, in := range n.Ins {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.ID, in.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String implements fmt.Stringer for diagnostics.
func (n *Node) String() string { return fmt.Sprintf("#%d %s", n.ID, label(n)) }
