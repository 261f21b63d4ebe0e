package xdm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStringValue(t *testing.T) {
	tests := []struct {
		it   Item
		want string
	}{
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewDouble(2.5), "2.5"},
		{NewDouble(3), "3"},
		{NewDouble(-0.5), "-0.5"},
		{NewDouble(math.Inf(1)), "INF"},
		{NewDouble(math.Inf(-1)), "-INF"},
		{NewDouble(math.NaN()), "NaN"},
		{NewString("hi"), "hi"},
		{NewUntyped(" raw "), " raw "},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, tc := range tests {
		if got := tc.it.StringValue(); got != tc.want {
			t.Errorf("StringValue(%v) = %q, want %q", tc.it, got, tc.want)
		}
	}
}

func TestAsDouble(t *testing.T) {
	for _, tc := range []struct {
		it   Item
		want float64
		ok   bool
	}{
		{NewInt(3), 3, true},
		{NewDouble(2.5), 2.5, true},
		{NewUntyped(" 4.25 "), 4.25, true},
		{NewString("12"), 12, true},
		{NewString("abc"), 0, false},
		{NewBool(true), 1, true},
	} {
		got, err := tc.it.AsDouble()
		if (err == nil) != tc.ok {
			t.Fatalf("AsDouble(%v) error = %v, want ok=%v", tc.it, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("AsDouble(%v) = %v, want %v", tc.it, got, tc.want)
		}
	}
}

func TestAsInteger(t *testing.T) {
	for _, tc := range []struct {
		it   Item
		want int64
		ok   bool
	}{
		{NewInt(3), 3, true},
		{NewDouble(2.9), 2, true},
		{NewUntyped("17"), 17, true},
		{NewUntyped("2.5"), 2, true},
		{NewString("x"), 0, false},
	} {
		got, err := tc.it.AsInteger()
		if (err == nil) != tc.ok {
			t.Fatalf("AsInteger(%v) error = %v, want ok=%v", tc.it, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Errorf("AsInteger(%v) = %v, want %v", tc.it, got, tc.want)
		}
	}
}

func TestNumberOrNaN(t *testing.T) {
	if got := NewString("oops").NumberOrNaN(); !math.IsNaN(got) {
		t.Errorf("NumberOrNaN(bad string) = %v, want NaN", got)
	}
	if got := NewUntyped("6.5").NumberOrNaN(); got != 6.5 {
		t.Errorf("NumberOrNaN(6.5) = %v", got)
	}
}

func TestSameAtomicValue(t *testing.T) {
	for _, tc := range []struct {
		a, b Item
		want bool
	}{
		{NewInt(3), NewDouble(3), true},
		{NewInt(3), NewDouble(3.5), false},
		{NewString("a"), NewUntyped("a"), true},
		{NewString("a"), NewString("b"), false},
		{NewBool(true), NewBool(true), true},
		{NewBool(true), NewInt(1), false},
		{NewString("1"), NewInt(1), false},
		{NewDouble(math.NaN()), NewDouble(math.NaN()), true},
	} {
		if got := SameAtomicValue(tc.a, tc.b); got != tc.want {
			t.Errorf("SameAtomicValue(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDistinctKeyMatchesSameAtomicValue(t *testing.T) {
	// Property: equal keys <=> SameAtomicValue, over a mixed pool.
	pool := []Item{
		NewInt(1), NewInt(2), NewDouble(1), NewDouble(2.5),
		NewString("1"), NewUntyped("1"), NewString("x"),
		NewBool(true), NewBool(false),
	}
	for _, a := range pool {
		for _, b := range pool {
			same := SameAtomicValue(a, b)
			keys := DistinctKey(a) == DistinctKey(b)
			if same != keys {
				t.Errorf("key/value disagreement for %v vs %v: same=%v keys=%v", a, b, same, keys)
			}
		}
	}
}

func TestNodeIDBefore(t *testing.T) {
	a := NodeID{Frag: 0, Pre: 5}
	b := NodeID{Frag: 0, Pre: 9}
	c := NodeID{Frag: 1, Pre: 0}
	if !a.Before(b) || b.Before(a) {
		t.Error("within-fragment order wrong")
	}
	if !b.Before(c) || c.Before(b) {
		t.Error("cross-fragment order wrong")
	}
	if a.Before(a) {
		t.Error("irreflexivity violated")
	}
}

func TestOrderCompareTotalOrderProperty(t *testing.T) {
	// Antisymmetry and sign consistency over random integer items.
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, c2 := OrderCompare(x, y), OrderCompare(y, x)
		return c1 == -c2 && (a == b) == (c1 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParseDoubleLexicalForm: ParseDouble accepts exactly xs:double's
// lexical space — an optional sign, digits with an optional fraction, an
// optional exponent, INF, +INF, -INF and NaN — around XML whitespace
// only. Go's own float syntax (inf, Infinity, nan, digit separators, hex
// mantissas) is not xs:double's.
func TestParseDoubleLexicalForm(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want float64
	}{
		{"0", 0}, {"-0", math.Copysign(0, -1)}, {"+12", 12}, {"1.", 1}, {".5", 0.5},
		{"-1.5e3", -1500}, {"1E-2", 0.01}, {"2.5e+1", 25}, {" \t12\r\n", 12},
		{"INF", math.Inf(1)}, {"+INF", math.Inf(1)}, {"-INF", math.Inf(-1)}, {"1e400", math.Inf(1)},
	} {
		got, err := ParseDouble(tc.s)
		if err != nil || math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("ParseDouble(%q) = %v, %v, want %v", tc.s, got, err, tc.want)
		}
	}
	if got, err := ParseDouble("NaN"); err != nil || !math.IsNaN(got) {
		t.Errorf("ParseDouble(NaN) = %v, %v", got, err)
	}
	for _, s := range []string{
		"", " ", ".", "-", "+", "e3", "1e", "1e+", "1.2.3", "--1", "+-1",
		"inf", "-inf", "Inf", "Infinity", "+Infinity", "nan", "NAN", "-NaN", "+NaN",
		"1_000", "0x1p3", "0x10", "1\u00a0", "\u00a01", "1 2",
	} {
		if f, err := ParseDouble(s); err == nil {
			t.Errorf("ParseDouble(%q) = %v, want a cast error", s, f)
		}
	}
}

// TestRoundHalfUp: fn:round rounds half toward positive infinity, and is
// exact where floor(x + 0.5) is not — just below one half, and beyond 2⁵²
// where adding 0.5 rounds the sum.
func TestRoundHalfUp(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0.49999999999999994, 0}, {4503599627370497, 4503599627370497},
		{-2.5, -2}, {2.5, 3}, {-0.5, math.Copysign(0, -1)}, {0.5, 1}, {-1.6, -2}, {1e300, 1e300},
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), math.Inf(-1)}, {-0.2, math.Copysign(0, -1)},
	} {
		if got := RoundHalfUp(tc.in); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("RoundHalfUp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := RoundHalfUp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("RoundHalfUp(NaN) = %v", got)
	}
}
