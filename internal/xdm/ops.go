package xdm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// CmpOp enumerates the six comparison relations shared by XQuery's value
// comparisons (eq, ne, lt, le, gt, ge) and general comparisons
// (=, !=, <, <=, >, >=).
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the general-comparison spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Flip returns the operator with its operands exchanged (a op b == b op.Flip a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return op
	}
}

func applyCmp(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// CompareValue implements XQuery value comparison (eq, lt, ...) on two
// atomized items: untypedAtomic is treated as xs:string, two integers
// compare exactly, other numerics promote to double, and comparing
// incompatible type classes is a type error.
func CompareValue(a, b Item, op CmpOp) (bool, error) {
	ak, bk := valueClass(a.Kind), valueClass(b.Kind)
	if ak != bk {
		return false, fmt.Errorf("xdm: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch {
	case a.Kind == KInteger && b.Kind == KInteger:
		return applyCmp(op, cmp.Compare(a.I, b.I)), nil
	case ak == classNum:
		af, _ := a.AsDouble()
		bf, _ := b.AsDouble()
		return cmpFloat(af, bf, op), nil
	case ak == classStr:
		return applyCmp(op, cmp.Compare(a.S, b.S)), nil
	case ak == classBool:
		return applyCmp(op, cmp.Compare(a.I, b.I)), nil
	default:
		return false, fmt.Errorf("xdm: cannot compare %s values", a.Kind)
	}
}

// CompareGeneral implements the item-level core of an XQuery general
// comparison (=, <, ...): untypedAtomic coerces to the other operand's
// type class (number if the other side is numeric, boolean if boolean,
// string otherwise); two untyped operands compare as strings.
func CompareGeneral(a, b Item, op CmpOp) (bool, error) {
	a2, b2, err := coerceGeneral(a, b)
	if err != nil {
		return false, err
	}
	return CompareValue(a2, b2, op)
}

func coerceGeneral(a, b Item) (Item, Item, error) {
	if a.Kind == KUntyped && b.Kind != KUntyped {
		c, err := CoerceUntyped(a, b.Kind)
		return c, b, err
	}
	if b.Kind == KUntyped && a.Kind != KUntyped {
		c, err := CoerceUntyped(b, a.Kind)
		return a, c, err
	}
	return a, b, nil
}

// CoerceUntyped casts the xs:untypedAtomic item u for a general
// comparison against an operand of kind target: to xs:double if that is
// numeric, to xs:boolean if it is boolean, to xs:string otherwise.
func CoerceUntyped(u Item, target Kind) (Item, error) {
	switch {
	case target.IsNumeric():
		f, err := u.AsDouble()
		if err != nil {
			return Item{}, err
		}
		return NewDouble(f), nil
	case target == KBoolean:
		switch TrimXMLSpace(u.S) {
		case "true", "1":
			return True, nil
		case "false", "0":
			return False, nil
		}
		return Item{}, fmt.Errorf("xdm: cannot cast %q to xs:boolean", u.S)
	default:
		return NewString(u.S), nil
	}
}

type cmpClass uint8

const (
	classNum cmpClass = iota
	classStr
	classBool
	classNode
)

func valueClass(k Kind) cmpClass {
	switch k {
	case KInteger, KDouble:
		return classNum
	case KString, KUntyped:
		return classStr
	case KBoolean:
		return classBool
	default:
		return classNode
	}
}

func cmpFloat(a, b float64, op CmpOp) bool {
	// NaN comparisons are false except ne, which is true when either side
	// is NaN (per IEEE/XQuery double semantics).
	if math.IsNaN(a) || math.IsNaN(b) {
		return op == CmpNe
	}
	switch {
	case a < b:
		return applyCmp(op, -1)
	case a > b:
		return applyCmp(op, 1)
	default:
		return applyCmp(op, 0)
	}
}

// PromoteSortKeys applies the order-by rule that a sort column is ordered
// in its values' least common type: when keys holds both integers and
// doubles, it returns a copy with every integer promoted to a double,
// otherwise keys itself. Promoting the column as a whole keeps equality
// transitive (two integers beyond ±2⁵³ that round to one double tie, as
// each ties with that double), and a column of integers only keeps its
// exact comparison.
func PromoteSortKeys(keys []Item) []Item {
	var ints, doubles bool
	for _, k := range keys {
		ints = ints || k.Kind == KInteger
		doubles = doubles || k.Kind == KDouble
	}
	if !ints || !doubles {
		return keys
	}
	out := slices.Clone(keys)
	for i, k := range out {
		if k.Kind == KInteger {
			out[i] = NewDouble(float64(k.I))
		}
	}
	return out
}

// OrderCompare is a total order over atomic items used for order by keys
// and deterministic result canonicalization: items order first by type
// class (numbers < strings < booleans < nodes), then by value, two
// integers exactly. NaN sorts before all other numbers.
func OrderCompare(a, b Item) int {
	ac, bc := valueClass(a.Kind), valueClass(b.Kind)
	if ac != bc {
		return int(ac) - int(bc)
	}
	if a.Kind == KInteger && b.Kind == KInteger {
		return cmp.Compare(a.I, b.I)
	}
	switch ac {
	case classNum:
		af, _ := a.AsDouble()
		bf, _ := b.AsDouble()
		return cmp.Compare(af, bf) // NaN first
	case classStr:
		return cmp.Compare(a.S, b.S)
	case classBool:
		return cmp.Compare(a.I, b.I)
	default:
		if a.N.Frag != b.N.Frag {
			return cmp.Compare(a.N.Frag, b.N.Frag)
		}
		return cmp.Compare(a.N.Pre, b.N.Pre)
	}
}

// ArithOp enumerates XQuery's binary arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
)

// String returns the XQuery spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	case OpIDiv:
		return "idiv"
	case OpMod:
		return "mod"
	default:
		return "?"
	}
}

// ErrIntOverflow is FOAR0002: an xs:integer result beyond int64.
var ErrIntOverflow = errors.New("xdm: integer overflow (FOAR0002)")

var errDivZero = errors.New("xdm: division by zero")

// Arith evaluates a op b with XQuery numeric promotion: an untypedAtomic
// operand is cast to xs:double, integer ops stay integral (IntArith; div
// yields a double), anything involving a double is computed in doubles,
// and any other operand is a type error.
func Arith(a, b Item, op ArithOp) (Item, error) {
	if a.Kind == KInteger && b.Kind == KInteger && op != OpDiv {
		i, err := IntArith(a.I, b.I, op)
		return NewInt(i), err
	}
	af, err := arithOperand(a)
	if err != nil {
		return Item{}, err
	}
	bf, err := arithOperand(b)
	if err != nil {
		return Item{}, err
	}
	switch op {
	case OpAdd:
		return NewDouble(af + bf), nil
	case OpSub:
		return NewDouble(af - bf), nil
	case OpMul:
		return NewDouble(af * bf), nil
	case OpDiv:
		return NewDouble(af / bf), nil
	case OpIDiv:
		if bf == 0 {
			return Item{}, errDivZero
		}
		// A NaN or infinite quotient fails the range test too (FOAR0002).
		if q := af / bf; q >= -(1<<63) && q < 1<<63 {
			return NewInt(int64(q)), nil
		}
		return Item{}, fmt.Errorf("xdm: idiv quotient out of integer range")
	case OpMod:
		return NewDouble(math.Mod(af, bf)), nil
	default:
		return Item{}, fmt.Errorf("xdm: unknown arithmetic operator")
	}
}

// arithOperand is an arithmetic operand as a double: a number, or an
// untypedAtomic cast to xs:double.
func arithOperand(it Item) (float64, error) {
	switch it.Kind {
	case KInteger:
		return float64(it.I), nil
	case KDouble:
		return it.F, nil
	case KUntyped:
		return ParseDouble(it.S)
	}
	return 0, fmt.Errorf("xdm: arithmetic over %s (XPTY0004)", it.Kind)
}

// IntArith is xs:integer arithmetic other than div: a result beyond
// int64 is ErrIntOverflow rather than a wrapped value.
func IntArith(a, b int64, op ArithOp) (int64, error) {
	switch op {
	case OpAdd:
		if s := a + b; (s^a)&(s^b) >= 0 {
			return s, nil
		}
	case OpSub:
		if d := a - b; (a^b)&(a^d) >= 0 {
			return d, nil
		}
	case OpMul:
		hi, lo := bits.Mul64(absU(a), absU(b))
		if (a < 0) != (b < 0) {
			if hi == 0 && lo <= 1<<63 {
				return int64(-lo), nil
			}
		} else if hi == 0 && lo < 1<<63 {
			return int64(lo), nil
		}
	case OpIDiv, OpMod:
		switch {
		case b == 0:
			return 0, errDivZero
		case op == OpMod:
			return a % b, nil
		case a != math.MinInt64 || b != -1:
			return a / b, nil
		}
	}
	return 0, ErrIntOverflow
}

// absU is |x| as an unsigned integer, exact for math.MinInt64 too.
func absU(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// EffectiveBooleanValue computes fn:boolean() of a sequence per XQuery:
// empty is false; a sequence whose first item is a node is true; a
// singleton atomic follows the per-type rules; any other case is a type
// error.
func EffectiveBooleanValue(seq []Item) (bool, error) {
	if len(seq) == 0 {
		return false, nil
	}
	if seq[0].IsNode() {
		return true, nil
	}
	if len(seq) > 1 {
		return false, fmt.Errorf("xdm: effective boolean value of multi-item atomic sequence")
	}
	it := seq[0]
	switch it.Kind {
	case KBoolean:
		return it.I != 0, nil
	case KString, KUntyped:
		return it.S != "", nil
	case KInteger:
		return it.I != 0, nil
	case KDouble:
		return it.F != 0 && !math.IsNaN(it.F), nil
	default:
		return false, fmt.Errorf("xdm: no effective boolean value for %s", it.Kind)
	}
}
