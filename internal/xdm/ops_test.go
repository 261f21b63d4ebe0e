package xdm

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestCompareValue(t *testing.T) {
	for _, tc := range []struct {
		a, b Item
		op   CmpOp
		want bool
		ok   bool
	}{
		{NewInt(1), NewInt(2), CmpLt, true, true},
		{NewInt(2), NewDouble(2), CmpEq, true, true},
		{NewDouble(2.5), NewInt(2), CmpGt, true, true},
		{NewString("a"), NewString("b"), CmpLt, true, true},
		{NewUntyped("a"), NewString("a"), CmpEq, true, true},
		{NewBool(false), NewBool(true), CmpLt, true, true},
		{NewString("1"), NewInt(1), CmpEq, false, false}, // type error
		{NewDouble(math.NaN()), NewDouble(1), CmpEq, false, true},
		{NewDouble(math.NaN()), NewDouble(1), CmpNe, true, true},
		{NewDouble(math.NaN()), NewDouble(math.NaN()), CmpEq, false, true},
	} {
		got, err := CompareValue(tc.a, tc.b, tc.op)
		if (err == nil) != tc.ok {
			t.Fatalf("CompareValue(%v %s %v) err = %v, want ok=%v", tc.a, tc.op, tc.b, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("CompareValue(%v %s %v) = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestCompareGeneralUntypedCoercion(t *testing.T) {
	// untyped vs numeric -> numeric comparison.
	got, err := CompareGeneral(NewUntyped("10"), NewInt(9), CmpGt)
	if err != nil || !got {
		t.Errorf("untyped 10 > 9: got %v, %v", got, err)
	}
	// untyped vs untyped -> string comparison ("10" < "9" lexically).
	got, err = CompareGeneral(NewUntyped("10"), NewUntyped("9"), CmpLt)
	if err != nil || !got {
		t.Errorf(`untyped "10" < "9": got %v, %v`, got, err)
	}
	// untyped vs string -> string comparison.
	got, err = CompareGeneral(NewUntyped("abc"), NewString("abd"), CmpLt)
	if err != nil || !got {
		t.Errorf("untyped abc < abd: got %v, %v", got, err)
	}
	// untyped vs boolean.
	got, err = CompareGeneral(NewUntyped("true"), NewBool(true), CmpEq)
	if err != nil || !got {
		t.Errorf("untyped true = true: got %v, %v", got, err)
	}
	// bad numeric cast is a dynamic error.
	if _, err = CompareGeneral(NewUntyped("zap"), NewInt(1), CmpEq); err == nil {
		t.Error("expected cast error for 'zap' vs numeric")
	}
}

func TestCmpOpFlip(t *testing.T) {
	f := func(a, b int64) bool {
		for op := CmpEq; op <= CmpGe; op++ {
			r1, err1 := CompareValue(NewInt(a), NewInt(b), op)
			r2, err2 := CompareValue(NewInt(b), NewInt(a), op.Flip())
			if err1 != nil || err2 != nil || r1 != r2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArith(t *testing.T) {
	for _, tc := range []struct {
		a, b Item
		op   ArithOp
		want Item
		ok   bool
	}{
		{NewInt(2), NewInt(3), OpAdd, NewInt(5), true},
		{NewInt(2), NewInt(3), OpMul, NewInt(6), true},
		{NewInt(7), NewInt(2), OpIDiv, NewInt(3), true},
		{NewInt(7), NewInt(2), OpMod, NewInt(1), true},
		{NewInt(7), NewInt(2), OpDiv, NewDouble(3.5), true},
		{NewInt(5), NewDouble(0.5), OpMul, NewDouble(2.5), true},
		{NewUntyped("4"), NewInt(2), OpSub, NewDouble(2), true},
		{NewInt(1), NewInt(0), OpIDiv, Item{}, false},
		{NewInt(1), NewInt(0), OpMod, Item{}, false},
		{NewString("x"), NewInt(1), OpAdd, Item{}, false},
	} {
		got, err := Arith(tc.a, tc.b, tc.op)
		if (err == nil) != tc.ok {
			t.Fatalf("Arith(%v %s %v) err = %v, want ok=%v", tc.a, tc.op, tc.b, err, tc.ok)
		}
		if tc.ok && (got.Kind != tc.want.Kind || got.I != tc.want.I || got.F != tc.want.F) {
			t.Errorf("Arith(%v %s %v) = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestArithIntegerRingProperties(t *testing.T) {
	f := func(a, b int32) bool {
		s, err := Arith(NewInt(int64(a)), NewInt(int64(b)), OpAdd)
		if err != nil || s.Kind != KInteger || s.I != int64(a)+int64(b) {
			return false
		}
		c, err := Arith(s, NewInt(int64(b)), OpSub)
		return err == nil && c.I == int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEffectiveBooleanValue(t *testing.T) {
	node := NewNode(NodeID{Frag: 0, Pre: 3})
	for _, tc := range []struct {
		seq  []Item
		want bool
		ok   bool
	}{
		{nil, false, true},
		{[]Item{NewBool(true)}, true, true},
		{[]Item{NewBool(false)}, false, true},
		{[]Item{NewString("")}, false, true},
		{[]Item{NewString("x")}, true, true},
		{[]Item{NewInt(0)}, false, true},
		{[]Item{NewInt(-1)}, true, true},
		{[]Item{NewDouble(math.NaN())}, false, true},
		{[]Item{node}, true, true},
		{[]Item{node, node}, true, true},
		{[]Item{NewInt(1), NewInt(2)}, false, false},
	} {
		got, err := EffectiveBooleanValue(tc.seq)
		if (err == nil) != tc.ok {
			t.Fatalf("EBV(%v) err = %v, want ok=%v", tc.seq, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("EBV(%v) = %v, want %v", tc.seq, got, tc.want)
		}
	}
}

// TestIDivOverDoublesErrors: a double quotient that is NaN, infinite or
// outside xs:integer has no integer value, so idiv reports an arithmetic
// error (FOAR0002) instead of Go's saturated int64 conversion.
func TestIDivOverDoublesErrors(t *testing.T) {
	for _, tc := range []struct{ a, b Item }{
		{NewDouble(math.Inf(1)), NewInt(1)},
		{NewDouble(math.Inf(-1)), NewInt(1)},
		{NewDouble(math.NaN()), NewInt(2)},
		{NewDouble(1e300), NewDouble(1e-300)},
		{NewDouble(1e19), NewInt(1)},
		{NewDouble(-1e19), NewInt(1)},
	} {
		got, err := Arith(tc.a, tc.b, OpIDiv)
		if err == nil || err.Error() != "xdm: idiv quotient out of integer range" {
			t.Errorf("%s idiv %s = %v, %v; want the out-of-range error", tc.a.StringValue(), tc.b.StringValue(), got.StringValue(), err)
		}
	}
	for _, tc := range []struct {
		a, b Item
		want int64
	}{
		{NewDouble(7.9), NewInt(2), 3},
		{NewDouble(-7.9), NewInt(2), -3},
		{NewDouble(-9.2e18), NewInt(1), -9200000000000000000},
	} {
		if got, err := Arith(tc.a, tc.b, OpIDiv); err != nil || got.Kind != KInteger || got.I != tc.want {
			t.Errorf("%s idiv %s = %v, %v; want %d", tc.a.StringValue(), tc.b.StringValue(), got, err, tc.want)
		}
	}
}

// TestIntArithOverflow: xs:integer addition, subtraction, multiplication
// and idiv beyond int64 raise FOAR0002 instead of wrapping.
func TestIntArithOverflow(t *testing.T) {
	const max, min = math.MaxInt64, math.MinInt64
	for _, tc := range []struct {
		a, b int64
		op   ArithOp
	}{
		{max, 1, OpAdd}, {min, -1, OpAdd}, {min, 1, OpSub}, {max, -1, OpSub}, {0, min, OpSub},
		{max, 2, OpMul}, {min, -1, OpMul}, {-1, min, OpMul}, {1 << 32, 1 << 31, OpMul}, {min, -1, OpIDiv},
	} {
		if got, err := Arith(NewInt(tc.a), NewInt(tc.b), tc.op); !errors.Is(err, ErrIntOverflow) {
			t.Errorf("%d %s %d = %v, %v; want FOAR0002", tc.a, tc.op, tc.b, got.StringValue(), err)
		}
	}
	for _, tc := range []struct {
		a, b int64
		op   ArithOp
		want int64
	}{
		{max, 0, OpAdd, max}, {min, 0, OpSub, min}, {min, 1, OpMul, min}, {-1, max, OpMul, -max},
		{1 << 31, -(1 << 32), OpMul, min}, {min, -1, OpMod, 0}, {min, 2, OpIDiv, min / 2}, {-7, 2, OpMod, -1},
	} {
		if got, err := Arith(NewInt(tc.a), NewInt(tc.b), tc.op); err != nil || got != NewInt(tc.want) {
			t.Errorf("%d %s %d = %v, %v; want %d", tc.a, tc.op, tc.b, got.StringValue(), err, tc.want)
		}
	}
	if got, err := Abs(NewInt(min)); !errors.Is(err, ErrIntOverflow) {
		t.Errorf("abs(%d) = %v, %v; want FOAR0002", int64(min), got.StringValue(), err)
	}
}

// TestArithOperandTypes: untypedAtomic operands are cast to xs:double;
// xs:string and xs:boolean operands are a type error.
func TestArithOperandTypes(t *testing.T) {
	if got, err := Arith(NewUntyped(" 4 "), NewInt(2), OpSub); err != nil || got != NewDouble(2) {
		t.Errorf(`untyped " 4 " - 2 = %v, %v`, got, err)
	}
	for _, a := range []Item{NewString("1"), True} {
		if got, err := Arith(a, NewInt(1), OpAdd); err == nil {
			t.Errorf("%s + 1 = %v, want a type error", a.Kind, got.StringValue())
		}
	}
}

// TestPromoteSortKeys: a sort column that mixes integers and doubles is
// promoted to doubles as a whole, into a copy; any other column is
// returned as it is, so integers alone keep their exact order.
func TestPromoteSortKeys(t *testing.T) {
	ints := []Item{NewInt(1<<53 + 1), NewInt(1 << 53), Null}
	if got := PromoteSortKeys(ints); &got[0] != &ints[0] {
		t.Error("a column of integers was copied")
	}
	mixed := append(slices.Clone(ints), NewDouble(1))
	got := PromoteSortKeys(mixed)
	if mixed[0].Kind != KInteger {
		t.Error("PromoteSortKeys changed its input")
	}
	want := []Item{NewDouble(1 << 53), NewDouble(1 << 53), Null, NewDouble(1)}
	if !slices.Equal(got, want) {
		t.Errorf("PromoteSortKeys(%v) = %v, want %v", mixed, got, want)
	}
}

// TestIntegerComparisonExact: two integers compare as integers, also
// beyond 2⁵³ where their doubles coincide; an integer against a double
// still promotes.
func TestIntegerComparisonExact(t *testing.T) {
	a, b := NewInt(1<<53+1), NewInt(1<<53)
	for op, want := range map[CmpOp]bool{CmpEq: false, CmpNe: true, CmpGt: true, CmpLe: false} {
		if got, err := CompareValue(a, b, op); err != nil || got != want {
			t.Errorf("2⁵³+1 %s 2⁵³ = %v, %v; want %v", op, got, err, want)
		}
	}
	if OrderCompare(a, b) <= 0 || OrderCompare(NewInt(math.MinInt64), NewInt(math.MinInt64+1)) >= 0 {
		t.Error("OrderCompare does not order integers beyond 2⁵³ exactly")
	}
	if SameAtomicValue(a, b) || DistinctKey(a) == DistinctKey(b) {
		t.Errorf("2⁵³+1 and 2⁵³ are one distinct value: keys %q, %q", DistinctKey(a), DistinctKey(b))
	}
	if d := NewDouble(1 << 53); !SameAtomicValue(b, d) || DistinctKey(b) != DistinctKey(d) {
		t.Errorf("integer 2⁵³ and double 2⁵³ are distinct: keys %q, %q", DistinctKey(b), DistinctKey(d))
	}
	if eq, err := CompareValue(a, NewDouble(1<<53), CmpEq); err != nil || !eq {
		t.Errorf("2⁵³+1 eq 2⁵³e0 = %v, %v; want true (promotion to double)", eq, err)
	}
	if DistinctKey(NewDouble(math.Copysign(0, -1))) != DistinctKey(NewDouble(0)) {
		t.Error("-0e0 and 0e0 are distinct values")
	}
}

// TestXMLWhitespace: only #x20, #x9, #xD and #xA are whitespace to
// normalize-space, the integer and boolean casts and ParseDouble.
func TestXMLWhitespace(t *testing.T) {
	for in, want := range map[string]string{
		"  a \t\r\n b  ": "a b", "a\u00a0b": "a\u00a0b", "\u2003a\u2003": "\u2003a\u2003", "": "", " \n ": "",
	} {
		if got := NormalizeSpace(in); got != want {
			t.Errorf("NormalizeSpace(%q) = %q, want %q", in, got, want)
		}
	}
	if i, err := NewUntyped("\u00a05").AsInteger(); err == nil {
		t.Errorf("AsInteger(NBSP 5) = %d, want a cast error", i)
	}
	if i, err := NewUntyped("\t5\n").AsInteger(); err != nil || i != 5 {
		t.Errorf("AsInteger(tab 5 newline) = %d, %v", i, err)
	}
	if ok, err := CompareGeneral(NewUntyped(" true\n"), True, CmpEq); err != nil || !ok {
		t.Errorf(`untyped " true" = true() is %v, %v`, ok, err)
	}
}

// TestRoundingFamily: integers stay integers, untypedAtomic is cast to a
// double, and xs:string or xs:boolean arguments are a type error.
func TestRoundingFamily(t *testing.T) {
	for _, tc := range []struct {
		fn   func(Item) (Item, error)
		in   Item
		want Item
	}{
		{Round, NewDouble(2.5), NewDouble(3)}, {Round, NewDouble(-2.5), NewDouble(-2)}, {Round, NewInt(7), NewInt(7)},
		{Round, NewUntyped("1.5"), NewDouble(2)}, {Floor, NewDouble(-0.5), NewDouble(-1)}, {Ceiling, NewDouble(2.1), NewDouble(3)},
		{Abs, NewInt(-3), NewInt(3)}, {Abs, NewDouble(-3.5), NewDouble(3.5)}, {Abs, NewUntyped("-2"), NewDouble(2)},
	} {
		if got, err := tc.fn(tc.in); err != nil || got != tc.want {
			t.Errorf("%v → %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, fn := range []func(Item) (Item, error){Round, Floor, Ceiling, Abs} {
		for _, in := range []Item{NewString("1.5"), NewString("2.5"), True} {
			if got, err := fn(in); err == nil {
				t.Errorf("%s argument gave %v, want a type error", in.Kind, got.StringValue())
			}
		}
	}
}

// TestSubstringExamples are F&O 3.1's fn:substring examples.
func TestSubstringExamples(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		s          string
		start, len float64
		hasLen     bool
		want       string
	}{
		{"motor car", 6, 0, false, " car"}, {"metadata", 4, 3, true, "ada"},
		{"12345", 1.5, 2.6, true, "234"}, {"12345", 0, 3, true, "12"}, {"12345", 5, -3, true, ""},
		{"12345", -3, 5, true, "1"}, {"12345", nan, 3, true, ""}, {"12345", 1, nan, true, ""},
		{"12345", -42, inf, true, "12345"}, {"12345", -inf, inf, true, ""}, {"", 1, 1, true, ""},
		{"été", 2, 1, true, "t"}, {"été", 3, 0, false, "é"},
	} {
		got, err := Substring(tc.s, NewDouble(tc.start))
		if tc.hasLen {
			got, err = Substring(tc.s, NewDouble(tc.start), NewDouble(tc.len))
		}
		if err != nil || got != NewString(tc.want) {
			t.Errorf("substring(%q, %v, %v) = %q, %v; want %q", tc.s, tc.start, tc.len, got.S, err, tc.want)
		}
	}
}

// TestAggregate: integer sums are exact and overflow-checked, switch to
// doubles when a double or untypedAtomic member arrives, and max/min
// reject incomparable classes and propagate NaN.
func TestAggregate(t *testing.T) {
	fold := func(op AggOp, seq ...Item) (Item, bool, error) {
		var a Aggregate
		for _, it := range seq {
			if err := a.Add(op, it); err != nil {
				return Item{}, false, err
			}
		}
		it, ok := a.Result(op)
		return it, ok, nil
	}
	for _, tc := range []struct {
		op   AggOp
		seq  []Item
		want Item
	}{
		{AggSum, []Item{NewInt(1<<53 + 1), NewInt(0)}, NewInt(1<<53 + 1)},
		{AggSum, []Item{NewInt(1), NewDouble(2.5), NewInt(3)}, NewDouble(6.5)},
		{AggSum, []Item{NewInt(1), NewUntyped("2")}, NewDouble(3)},
		{AggSum, []Item{NewDouble(math.Copysign(0, -1))}, NewDouble(math.Copysign(0, -1))},
		{AggSum, nil, NewInt(0)},
		{AggAvg, []Item{NewInt(1), NewInt(2)}, NewDouble(1.5)},
		{AggMax, []Item{NewInt(1), NewDouble(2.5)}, NewDouble(2.5)},
		{AggMax, []Item{NewInt(1<<53 + 1), NewInt(1 << 53)}, NewInt(1<<53 + 1)},
		{AggMin, []Item{NewString("b"), NewString("a")}, NewString("a")},
		{AggMax, []Item{NewBool(false), NewBool(true)}, True},
	} {
		got, ok, err := fold(tc.op, tc.seq...)
		if err != nil || !ok || math.Float64bits(got.F) != math.Float64bits(tc.want.F) || got.Kind != tc.want.Kind || got.I != tc.want.I || got.S != tc.want.S {
			t.Errorf("fn:%s%v = %v, %v, %v; want %v", tc.op, tc.seq, got, ok, err, tc.want)
		}
	}
	for _, op := range []AggOp{AggMax, AggMin} {
		if got, _, err := fold(op, NewInt(3), NewDouble(math.NaN()), NewInt(1)); err != nil || !math.IsNaN(got.F) {
			t.Errorf("fn:%s with a NaN = %v, %v; want NaN", op, got, err)
		}
	}
	for _, tc := range []struct {
		op  AggOp
		seq []Item
	}{
		{AggSum, []Item{NewInt(math.MaxInt64), NewInt(1)}},
		{AggSum, []Item{NewString("1")}},
		{AggAvg, []Item{NewBool(true)}},
		{AggMax, []Item{NewInt(1), NewString("a")}},
		{AggMin, []Item{NewString("a"), NewBool(true)}},
		{AggMax, []Item{NewUntyped("x")}},
	} {
		if got, _, err := fold(tc.op, tc.seq...); err == nil {
			t.Errorf("fn:%s%v = %v, want an error", tc.op, tc.seq, got)
		}
	}
	for _, op := range []AggOp{AggAvg, AggMax, AggMin} {
		if _, ok, _ := fold(op); ok {
			t.Errorf("fn:%s(()) is not empty", op)
		}
	}
}
