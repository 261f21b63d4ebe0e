// Package xdm implements the fragment of the XQuery Data Model (XDM)
// required by the eXrQuy pipeline: atomic items, node references, typed
// value semantics (promotion, atomization targets), and the comparison and
// arithmetic operators of XQuery 1.0 restricted to the types the engine
// materializes (integer, double, string, boolean, untypedAtomic, node).
//
// The package is deliberately free of any dependency on the tree storage:
// node-valued items carry an opaque NodeID and all node-dependent behaviour
// (atomization, string value, document order) is resolved by the caller,
// which owns the fragment store.
package xdm

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of an Item.
type Kind uint8

// Item kinds. KUntyped is xs:untypedAtomic, the type of atomized element
// and attribute content in schema-less processing.
const (
	KUntyped Kind = iota // xs:untypedAtomic, stored in S
	KString              // xs:string, stored in S
	KInteger             // xs:integer, stored in I
	KDouble              // xs:double (also used for xs:decimal), stored in F
	KBoolean             // xs:boolean, stored in I (0/1)
	KNode                // node reference, stored in N

	// Internal kinds that never appear in query results:
	KNull // absent order-by key; sorts below (empty least) or above (empty greatest) everything
)

// String returns the XDM type name for the kind.
func (k Kind) String() string {
	switch k {
	case KUntyped:
		return "xs:untypedAtomic"
	case KString:
		return "xs:string"
	case KInteger:
		return "xs:integer"
	case KDouble:
		return "xs:double"
	case KBoolean:
		return "xs:boolean"
	case KNode:
		return "node()"
	case KNull:
		return "null"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsNumeric reports whether the kind is a numeric atomic type.
func (k Kind) IsNumeric() bool { return k == KInteger || k == KDouble }

// NodeID identifies a node: the fragment it lives in and its preorder rank
// within that fragment. Document order across fragments is the
// implementation-defined (but stable) order (Frag, Pre).
type NodeID struct {
	Frag uint32
	Pre  int32
}

// Before reports whether n precedes m in the global document order.
func (n NodeID) Before(m NodeID) bool {
	if n.Frag != m.Frag {
		return n.Frag < m.Frag
	}
	return n.Pre < m.Pre
}

// Item is a single XDM item: an atomic value or a node reference. The
// representation is a small tagged struct so that columns of items can be
// stored as flat slices (the columnar engine's []Item "BATs").
type Item struct {
	Kind Kind
	I    int64   // KInteger value; KBoolean 0/1
	F    float64 // KDouble value
	S    string  // KString / KUntyped value
	N    NodeID  // KNode reference
}

// Convenience constructors.

// NewInt returns an xs:integer item.
func NewInt(i int64) Item { return Item{Kind: KInteger, I: i} }

// NewDouble returns an xs:double item.
func NewDouble(f float64) Item { return Item{Kind: KDouble, F: f} }

// NewString returns an xs:string item.
func NewString(s string) Item { return Item{Kind: KString, S: s} }

// NewUntyped returns an xs:untypedAtomic item.
func NewUntyped(s string) Item { return Item{Kind: KUntyped, S: s} }

// NewBool returns an xs:boolean item.
func NewBool(b bool) Item {
	if b {
		return Item{Kind: KBoolean, I: 1}
	}
	return Item{Kind: KBoolean}
}

// NewNode returns a node-reference item.
func NewNode(id NodeID) Item { return Item{Kind: KNode, N: id} }

// Null is the absent-order-key marker. Internal use only.
var Null = Item{Kind: KNull}

// True and False are the two boolean items.
var (
	True  = NewBool(true)
	False = NewBool(false)
)

// IsNode reports whether the item is a node reference.
func (it Item) IsNode() bool { return it.Kind == KNode }

// Bool returns the boolean payload; it panics unless Kind is KBoolean.
func (it Item) Bool() bool {
	if it.Kind != KBoolean {
		panic("xdm: Bool() on non-boolean item " + it.Kind.String())
	}
	return it.I != 0
}

// StringValue returns the lexical form of an atomic item. It panics on
// node items (their string value needs the tree store).
func (it Item) StringValue() string {
	switch it.Kind {
	case KUntyped, KString:
		return it.S
	case KInteger:
		return strconv.FormatInt(it.I, 10)
	case KDouble:
		return formatDouble(it.F)
	case KBoolean:
		if it.I != 0 {
			return "true"
		}
		return "false"
	default:
		panic("xdm: StringValue on node item")
	}
}

// formatDouble renders a float the way XQuery serializes xs:double values
// in the common (non-exponential) range: integral values print without a
// decimal point.
func formatDouble(f float64) string {
	if math.IsInf(f, 1) {
		return "INF"
	}
	if math.IsInf(f, -1) {
		return "-INF"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// AsDouble converts an atomic item to xs:double following the XPath number
// coercion rules (strings parse their lexical form; booleans map to 0/1).
func (it Item) AsDouble() (float64, error) {
	switch it.Kind {
	case KInteger:
		return float64(it.I), nil
	case KDouble:
		return it.F, nil
	case KBoolean:
		return float64(it.I), nil
	case KUntyped, KString:
		return ParseDouble(it.S)
	default:
		return 0, fmt.Errorf("xdm: cannot cast %s to xs:double", it.Kind)
	}
}

// ParseDouble casts the lexical form of a string or untypedAtomic value
// to xs:double: an optional sign, digits with an optional fraction, an
// optional exponent, or one of INF, +INF, -INF and NaN, between optional
// XML whitespace. A numeral beyond the double range rounds to ±INF or ±0.
// Typed kernels cast whole untyped columns through it, so they fail
// exactly where AsDouble does.
func ParseDouble(s string) (float64, error) {
	t := TrimXMLSpace(s)
	if isDoubleNumeral(t) {
		// strconv accepts every such numeral; its only error is the range
		// one, whose value is the rounded ±Inf or ±0.
		f, _ := strconv.ParseFloat(t, 64)
		return f, nil
	}
	switch t {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return 0, fmt.Errorf("xdm: cannot cast %q to xs:double", s)
}

// IsXMLSpace reports whether c is one of XML's four whitespace
// characters, #x20, #x9, #xD and #xA: the only ones XQuery strips,
// collapses or ignores (U+00A0 and the other Unicode spaces are text).
func IsXMLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// TrimXMLSpace strips leading and trailing XML whitespace from s.
func TrimXMLSpace(s string) string {
	for len(s) > 0 && IsXMLSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && IsXMLSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// isDoubleNumeral reports whether s is an xs:double numeral: an optional
// sign, at least one digit before or after an optional point, and an
// optional exponent with an optional sign.
func isDoubleNumeral(s string) bool {
	i, digits := 0, 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		digits++
	}
	if i < len(s) && s[i] == '.' {
		for i++; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			digits++
		}
	}
	if digits == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		exp := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		if i == exp {
			return false
		}
	}
	return i == len(s)
}

// RoundHalfUp is fn:round over a double: the nearest integer, halves
// toward positive infinity, and a negative argument that rounds to zero
// gives -0. It floors first and adds one when the remainder is at least
// one half, so no sum rounds on the way (floor(x + 0.5) does, just below
// one half and beyond 2⁵²).
func RoundHalfUp(f float64) float64 {
	r := math.Floor(f)
	if f-r >= 0.5 {
		r++
	}
	if r == 0 && math.Signbit(f) {
		return math.Copysign(0, -1)
	}
	return r
}

// NumberOrNaN implements fn:number(): failed casts yield NaN instead of an
// error.
func (it Item) NumberOrNaN() float64 {
	f, err := it.AsDouble()
	if err != nil {
		return math.NaN()
	}
	return f
}

// AsInteger converts an atomic item to xs:integer.
func (it Item) AsInteger() (int64, error) {
	switch it.Kind {
	case KInteger:
		return it.I, nil
	case KDouble:
		return int64(it.F), nil
	case KBoolean:
		return it.I, nil
	case KUntyped, KString:
		i, err := strconv.ParseInt(TrimXMLSpace(it.S), 10, 64)
		if err != nil {
			f, ferr := ParseDouble(it.S)
			if ferr != nil {
				return 0, fmt.Errorf("xdm: cannot cast %q to xs:integer", it.S)
			}
			return int64(f), nil
		}
		return i, nil
	default:
		return 0, fmt.Errorf("xdm: cannot cast %s to xs:integer", it.Kind)
	}
}

// SameAtomicValue reports deep equality of two atomic items under the
// semantics of fn:distinct-values: two integers compare exactly, other
// numeric values compare as doubles, strings and untyped compare by
// codepoints, and items of incomparable type classes are distinct.
func SameAtomicValue(a, b Item) bool {
	if a.Kind == KInteger && b.Kind == KInteger {
		return a.I == b.I
	}
	if a.Kind.IsNumeric() && b.Kind.IsNumeric() {
		af, _ := a.AsDouble()
		bf, _ := b.AsDouble()
		return af == bf || (math.IsNaN(af) && math.IsNaN(bf))
	}
	switch {
	case isStringy(a.Kind) && isStringy(b.Kind):
		return a.S == b.S
	case a.Kind == KBoolean && b.Kind == KBoolean:
		return a.I == b.I
	default:
		return false
	}
}

func isStringy(k Kind) bool { return k == KString || k == KUntyped }

// DistinctKey returns a string key under which SameAtomicValue-equal items
// collide; used for hash-based distinct-values and grouping. A number keys
// as its double (-0 as 0), except an integer without an exact double,
// which keys as itself: it equals no other integer, and SameAtomicValue's
// double promotion is not transitive there, so no key can follow it.
func DistinctKey(it Item) string {
	switch it.Kind {
	case KInteger:
		if f := float64(it.I); f >= -(1<<63) && f < 1<<63 && int64(f) == it.I {
			return "n" + strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "i" + strconv.FormatInt(it.I, 10)
	case KDouble:
		f := it.F
		if f == 0 {
			f = 0 // -0 keys as 0
		}
		return "n" + strconv.FormatFloat(f, 'g', -1, 64)
	case KString, KUntyped:
		return "s" + it.S
	case KBoolean:
		if it.I != 0 {
			return "bt"
		}
		return "bf"
	case KNode:
		return fmt.Sprintf("N%d:%d", it.N.Frag, it.N.Pre)
	default:
		return "?"
	}
}
