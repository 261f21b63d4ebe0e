package xdm

import (
	"math"
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
