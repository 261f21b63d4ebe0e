package xdm

import (
	"math"
	"math/big"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// The spec model: the scalar rules of XPath 3.1 and F&O 3.1 written out
// from the specification text, independently of the production code and
// exact where that code works in machine words. Integers are big.Int, so
// an overflow is a range test on the exact result rather than a wrapped
// word; rounding is exact rational arithmetic; whitespace is F&O's four
// characters. Where the implementation deviates on purpose (DESIGN §6:
// xs:decimal is a double; function arguments accept xs:string and
// xs:boolean where xs:double is expected), the model deviates the same
// way, so what FuzzScalarSpec finds is a bug.

// specErr is an F&O error code; "" is success.
type specErr string

const (
	specOK       specErr = ""
	specDivZero  specErr = "FOAR0001"
	specOverflow specErr = "FOAR0002"
	specCast     specErr = "FORG0001"
	specAggType  specErr = "FORG0006"
	specType     specErr = "XPTY0004"
)

// specNum is a numeric value: an exact integer or a double.
type specNum struct {
	isInt bool
	i     *big.Int
	f     float64
}

func (n specNum) double() float64 {
	if !n.isInt {
		return n.f
	}
	f, _ := new(big.Float).SetInt(n.i).Float64() // nearest, ties to even
	return f
}

// specInt returns an integer result, or FOAR0002 beyond int64.
func specInt(i *big.Int) (specNum, specErr) {
	if !i.IsInt64() {
		return specNum{}, specOverflow
	}
	return specNum{isInt: true, i: i}, specOK
}

var specDoubleLexical = regexp.MustCompile(`^([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?INF|NaN)$`)

// specTrim is the whiteSpace=collapse facet's edges: #x20, #x9, #xD, #xA.
func specTrim(s string) string { return strings.Trim(s, " \t\r\n") }

// specCastDouble casts a lexical form to xs:double.
func specCastDouble(s string) (float64, specErr) {
	t := specTrim(s)
	if !specDoubleLexical.MatchString(t) {
		return 0, specCast
	}
	switch t {
	case "INF", "+INF":
		return math.Inf(1), specOK
	case "-INF":
		return math.Inf(-1), specOK
	case "NaN":
		return math.NaN(), specOK
	}
	f, _ := strconv.ParseFloat(t, 64) // a range error's value is the rounded ±Inf or ±0
	return f, specOK
}

// specNumeric is an arithmetic operand after atomisation: an integer or
// double as itself, an untypedAtomic cast to xs:double, anything else a
// type error.
func specNumeric(it Item) (specNum, specErr) {
	switch it.Kind {
	case KInteger:
		return specNum{isInt: true, i: big.NewInt(it.I)}, specOK
	case KDouble:
		return specNum{f: it.F}, specOK
	case KUntyped:
		f, e := specCastDouble(it.S)
		return specNum{f: f}, e
	}
	return specNum{}, specType
}

// specFuncDouble is function conversion to xs:double as the implementation
// does it: numerics promote, and untypedAtomic, xs:string and xs:boolean
// are cast (the last two are a named deviation).
func specFuncDouble(it Item) (float64, specErr) {
	switch it.Kind {
	case KString:
		return specCastDouble(it.S)
	case KBoolean:
		return float64(it.I), specOK
	}
	n, e := specNumeric(it)
	return n.double(), e
}

// specArith is op:numeric-add … op:numeric-mod.
func specArith(a, b Item, op ArithOp) (specNum, specErr) {
	x, e := specNumeric(a)
	if e != specOK {
		return specNum{}, e
	}
	y, e := specNumeric(b)
	if e != specOK {
		return specNum{}, e
	}
	if x.isInt && y.isInt && op != OpDiv {
		r := new(big.Int)
		switch op {
		case OpAdd:
			r.Add(x.i, y.i)
		case OpSub:
			r.Sub(x.i, y.i)
		case OpMul:
			r.Mul(x.i, y.i)
		default:
			if y.i.Sign() == 0 {
				return specNum{}, specDivZero
			}
			if op == OpIDiv {
				r.Quo(x.i, y.i) // truncating
			} else {
				r.Rem(x.i, y.i) // the dividend's sign
			}
		}
		return specInt(r)
	}
	// Otherwise both promote to xs:double; integer div integer is an
	// xs:decimal division, which the implementation also does in doubles.
	p, q := x.double(), y.double()
	switch op {
	case OpAdd:
		return specNum{f: p + q}, specOK
	case OpSub:
		return specNum{f: p - q}, specOK
	case OpMul:
		return specNum{f: p * q}, specOK
	case OpDiv:
		return specNum{f: p / q}, specOK
	case OpIDiv:
		if q == 0 {
			return specNum{}, specDivZero
		}
		d := p / q
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return specNum{}, specOverflow
		}
		i, _ := new(big.Float).SetFloat64(d).Int(nil) // toward zero
		return specInt(i)
	default:
		return specNum{f: specFmod(p, q)}, specOK
	}
}

// specFmod is the double remainder: NaN when either operand is NaN, the
// dividend infinite or the divisor zero; the dividend when the divisor is
// infinite; otherwise p - q·trunc(p/q) computed exactly, with the
// dividend's sign.
func specFmod(p, q float64) float64 {
	switch {
	case math.IsNaN(p) || math.IsNaN(q) || math.IsInf(p, 0) || q == 0:
		return math.NaN()
	case math.IsInf(q, 0) || p == 0:
		return p
	}
	x, y := new(big.Rat).SetFloat64(p), new(big.Rat).SetFloat64(q)
	quo := new(big.Rat).Quo(x, y)
	t := new(big.Int).Quo(quo.Num(), quo.Denom())
	r := new(big.Rat).Sub(x, new(big.Rat).Mul(y, new(big.Rat).SetInt(t)))
	f, _ := r.Float64()
	if f == 0 {
		return math.Copysign(0, p)
	}
	return f
}

// specClass is a comparison class: 0 numeric, 1 string, 2 boolean, 3 none.
func specClass(k Kind) int {
	switch k {
	case KInteger, KDouble:
		return 0
	case KString, KUntyped:
		return 1
	case KBoolean:
		return 2
	}
	return 3
}

// specCmpNum compares two numbers: exactly when both are integers,
// otherwise as doubles. ok is false when a NaN makes them unordered.
func specCmpNum(x, y specNum) (c int, ok bool) {
	if x.isInt && y.isInt {
		return x.i.Cmp(y.i), true
	}
	p, q := x.double(), y.double()
	switch {
	case math.IsNaN(p) || math.IsNaN(q):
		return 0, false
	case p < q:
		return -1, true
	case p > q:
		return 1, true
	}
	return 0, true
}

// specCmpStr compares by Unicode codepoints.
func specCmpStr(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	for k := 0; k < len(ra) && k < len(rb); k++ {
		if ra[k] != rb[k] {
			if ra[k] < rb[k] {
				return -1
			}
			return 1
		}
	}
	return len(ra) - len(rb)
}

func specHolds(op CmpOp, c int) bool {
	return [...]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[op]
}

// specValueCmp is a value comparison: untypedAtomic is xs:string, and the
// operands must share a class.
func specValueCmp(a, b Item, op CmpOp) (bool, specErr) {
	ca, cb := specClass(a.Kind), specClass(b.Kind)
	if ca != cb || ca == 3 {
		return false, specType
	}
	switch ca {
	case 0:
		x, _ := specNumeric(a)
		y, _ := specNumeric(b)
		c, ok := specCmpNum(x, y)
		return ok && specHolds(op, c) || !ok && op == CmpNe, specOK
	case 1:
		return specHolds(op, specCmpStr(a.S, b.S)), specOK
	}
	return specHolds(op, int(a.I-b.I)), specOK
}

// specGeneralCmp is one pair of a general comparison: an untypedAtomic
// operand is cast to xs:double against a number, to xs:boolean against a
// boolean, and is a string otherwise.
func specGeneralCmp(a, b Item, op CmpOp) (bool, specErr) {
	cast := func(u Item, other Kind) (Item, specErr) {
		switch specClass(other) {
		case 0:
			f, e := specCastDouble(u.S)
			return NewDouble(f), e
		case 2:
			switch specTrim(u.S) {
			case "true", "1":
				return True, specOK
			case "false", "0":
				return False, specOK
			}
			return Item{}, specCast
		}
		return NewString(u.S), specOK
	}
	var e specErr
	switch {
	case a.Kind == KUntyped && b.Kind != KUntyped:
		a, e = cast(a, b.Kind)
	case b.Kind == KUntyped && a.Kind != KUntyped:
		b, e = cast(b, a.Kind)
	}
	if e != specOK {
		return false, e
	}
	return specValueCmp(a, b, op)
}

// specOrder is OrderCompare's documented total order: numbers < strings <
// booleans < nodes, NaN first among the numbers, then by value.
func specOrder(a, b Item) int {
	ca, cb := specClass(a.Kind), specClass(b.Kind)
	if ca != cb {
		return ca - cb
	}
	switch ca {
	case 0:
		x, _ := specNumeric(a)
		y, _ := specNumeric(b)
		if c, ok := specCmpNum(x, y); ok {
			return c
		}
		an, bn := math.IsNaN(x.double()), math.IsNaN(y.double())
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		}
		return 1
	case 1:
		return specCmpStr(a.S, b.S)
	case 2:
		return int(a.I - b.I)
	}
	return 0
}

// specSame is fn:distinct-values' equality: eq, with NaN equal to NaN,
// and false across classes.
func specSame(a, b Item) bool {
	if specClass(a.Kind) == 0 && specClass(b.Kind) == 0 {
		x, _ := specNumeric(a)
		y, _ := specNumeric(b)
		c, ok := specCmpNum(x, y)
		return ok && c == 0 || !ok && math.IsNaN(x.double()) && math.IsNaN(y.double())
	}
	eq, e := specValueCmp(a, b, CmpEq)
	return e == specOK && eq
}

// specRound is fn:round, fn:floor, fn:ceiling or fn:abs ("round",
// "floor", "ceiling", "abs") over one atomised argument.
func specRound(fn string, it Item) (specNum, specErr) {
	x, e := specNumeric(it)
	if e != specOK {
		return specNum{}, e
	}
	if x.isInt {
		if fn == "abs" {
			return specInt(new(big.Int).Abs(x.i))
		}
		return x, specOK
	}
	f := x.f
	if math.IsNaN(f) || math.IsInf(f, 0) || f == 0 {
		if fn == "abs" {
			return specNum{f: math.Abs(f)}, specOK
		}
		return x, specOK
	}
	if fn == "abs" {
		if f < 0 {
			f = -f
		}
		return specNum{f: f}, specOK
	}
	r := new(big.Rat).SetFloat64(f)
	if fn == "round" {
		r.Add(r, big.NewRat(1, 2)) // halves toward positive infinity
	}
	fl := new(big.Int).Div(r.Num(), r.Denom()) // Euclidean: floor for a positive denominator
	if fn == "ceiling" && !r.IsInt() {
		fl.Add(fl, big.NewInt(1))
	}
	out, _ := new(big.Float).SetInt(fl).Float64()
	if out == 0 && f < 0 {
		out = math.Copysign(0, -1) // a negative argument that rounds to zero gives -0
	}
	return specNum{f: out}, specOK
}

// specNegate is op:numeric-unary-minus: an exact integer negation, or a
// double's sign flipped.
func specNegate(it Item) (specNum, specErr) {
	x, e := specNumeric(it)
	if e != specOK {
		return specNum{}, e
	}
	if x.isInt {
		return specInt(new(big.Int).Neg(x.i))
	}
	return specNum{f: -x.f}, specOK
}

// specSubstring is fn:substring: the characters at positions p with
// round(start) <= p < round(start) + round(length), in doubles.
func specSubstring(s string, start Item, length *Item) (string, specErr) {
	st, e := specFuncDouble(start)
	if e != specOK {
		return "", e
	}
	r, _ := specRound("round", NewDouble(st))
	lo, hi := r.f, math.Inf(1)
	if length != nil {
		ln, e := specFuncDouble(*length)
		if e != specOK {
			return "", e
		}
		rl, _ := specRound("round", NewDouble(ln))
		hi = lo + rl.f
	}
	var out []rune
	for k, c := range []rune(s) {
		if p := float64(k + 1); lo <= p && p < hi {
			out = append(out, c)
		}
	}
	return string(out), specOK
}

// specNormalizeSpace is fn:normalize-space.
func specNormalizeSpace(s string) string {
	return strings.Join(strings.FieldsFunc(s, func(r rune) bool { return strings.ContainsRune(" \t\r\n", r) }), " ")
}

// specAggregate is fn:sum, fn:avg, fn:max or fn:min: untypedAtomic members
// are cast to xs:double; sum is the left fold of +; avg is sum div count;
// max and min need one comparable class and return NaN when a member is
// NaN. ok is false for an empty result.
func specAggregate(op AggOp, seq []Item) (res Item, ok bool, e specErr) {
	vals := make([]Item, len(seq))
	for k, it := range seq {
		vals[k] = it
		if it.Kind == KUntyped {
			f, e := specCastDouble(it.S)
			if e != specOK {
				return Item{}, false, e
			}
			vals[k] = NewDouble(f)
		}
	}
	if len(vals) == 0 {
		return NewInt(0), op == AggSum, specOK
	}
	switch op {
	case AggSum, AggAvg:
		acc := vals[0]
		for _, v := range vals {
			if specClass(v.Kind) != 0 {
				return Item{}, false, specAggType
			}
		}
		for _, v := range vals[1:] {
			n, e := specArith(acc, v, OpAdd)
			if e != specOK {
				return Item{}, false, e
			}
			acc = specItem(n)
		}
		if op == AggAvg {
			x, _ := specNumeric(acc)
			return NewDouble(x.double() / float64(len(vals))), true, specOK
		}
		return acc, true, specOK
	}
	best := vals[0]
	for _, v := range vals {
		if specClass(v.Kind) != specClass(best.Kind) || specClass(v.Kind) == 3 {
			return Item{}, false, specAggType
		}
	}
	for _, v := range vals {
		if v.Kind == KDouble && math.IsNaN(v.F) {
			return v, true, specOK
		}
	}
	for _, v := range vals[1:] {
		if c := specOrder(v, best); op == AggMax && c > 0 || op == AggMin && c < 0 {
			best = v
		}
	}
	return best, true, specOK
}

func specItem(n specNum) Item {
	if n.isInt {
		return NewInt(n.i.Int64())
	}
	return NewDouble(n.f)
}

// sameNum reports whether a production item is the model's number: the
// same type, and the same integer or the same double bits (any NaN).
func sameNum(it Item, n specNum) bool {
	if n.isInt {
		return it.Kind == KInteger && big.NewInt(it.I).Cmp(n.i) == 0
	}
	return it.Kind == KDouble && (math.Float64bits(it.F) == math.Float64bits(n.f) || math.IsNaN(it.F) && math.IsNaN(n.f))
}

// errMatches reports whether a production error agrees with the model's
// outcome: both succeed, or both fail.
func errMatches(err error, e specErr) bool { return (err == nil) == (e == specOK) }

// specAtoms is the seed pool the fuzzer mixes into its sequences.
var specAtoms = []Item{
	NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(1<<53 + 1), NewInt(1 << 53),
	NewDouble(math.NaN()), NewDouble(math.Copysign(0, -1)), NewDouble(2.5), NewDouble(1 << 53), NewDouble(math.Inf(-1)),
	NewUntyped(" 1.5 "), NewUntyped("x"), NewUntyped(" true "), NewString("a"), NewString(" b"), True, False,
}

// specFuzzItem builds an item of kind k (mod 5) from the fuzzer's payloads.
func specFuzzItem(k uint8, i int64, f float64, s string) Item {
	switch k % 5 {
	case 0:
		return NewInt(i)
	case 1:
		return NewDouble(f)
	case 2:
		return NewUntyped(s)
	case 3:
		return NewString(s)
	}
	return NewBool(i&1 == 1)
}

// checkScalarSpec checks every scalar entry point over a and b (and the
// string s) against the model.
func checkScalarSpec(t *testing.T, a, b Item, s string, pick uint16) {
	t.Helper()
	for op := OpAdd; op <= OpMod; op++ {
		got, err := Arith(a, b, op)
		want, e := specArith(a, b, op)
		if !errMatches(err, e) || err == nil && !sameNum(got, want) {
			t.Fatalf("Arith(%#v %s %#v) = %#v, %v; model %+v, %q", a, op, b, got, err, want, e)
		}
	}
	for op := CmpEq; op <= CmpGe; op++ {
		got, err := CompareValue(a, b, op)
		want, e := specValueCmp(a, b, op)
		if !errMatches(err, e) || err == nil && got != want {
			t.Fatalf("CompareValue(%#v %s %#v) = %v, %v; model %v, %q", a, op, b, got, err, want, e)
		}
		got, err = CompareGeneral(a, b, op)
		want, e = specGeneralCmp(a, b, op)
		if !errMatches(err, e) || err == nil && got != want {
			t.Fatalf("CompareGeneral(%#v %s %#v) = %v, %v; model %v, %q", a, op, b, got, err, want, e)
		}
	}
	if got, want := OrderCompare(a, b), specOrder(a, b); (got > 0) != (want > 0) || (got < 0) != (want < 0) {
		t.Fatalf("OrderCompare(%#v, %#v) = %d; model %d", a, b, got, want)
	}
	same := specSame(a, b)
	if got := SameAtomicValue(a, b); got != same {
		t.Fatalf("SameAtomicValue(%#v, %#v) = %v; model %v", a, b, got, same)
	}
	// Keys collide exactly for equal values, save where an integer without
	// an exact double meets a double: promotion makes that equality
	// intransitive, and such an integer keys as itself.
	inexact := func(x, y Item) bool {
		_, acc := new(big.Float).SetInt64(x.I).Float64()
		return x.Kind == KInteger && acc != big.Exact && y.Kind == KDouble
	}
	if keys := DistinctKey(a) == DistinctKey(b); keys && !same || !keys && same && !inexact(a, b) && !inexact(b, a) {
		t.Fatalf("DistinctKey(%#v) == DistinctKey(%#v) is %v; model equality %v", a, b, keys, same)
	}
	pd, err := ParseDouble(s)
	if want, e := specCastDouble(s); !errMatches(err, e) || err == nil && !sameNum(NewDouble(pd), specNum{f: want}) {
		t.Fatalf("ParseDouble(%q) = %v, %v; model %v, %q", s, pd, err, want, e)
	}
	for fn, f := range map[string]func(Item) (Item, error){"round": Round, "floor": Floor, "ceiling": Ceiling, "abs": Abs} {
		got, err := f(a)
		want, e := specRound(fn, a)
		if !errMatches(err, e) || err == nil && !sameNum(got, want) {
			t.Fatalf("%s(%#v) = %#v, %v; model %+v, %q", fn, a, got, err, want, e)
		}
	}
	{
		want, e := specNegate(a)
		if got, err := Negate(a); !errMatches(err, e) || err == nil && !sameNum(got, want) {
			t.Fatalf("-(%#v) = %#v, %v; model %+v, %q", a, got, err, want, e)
		}
	}
	got, err := Substring(s, a)
	want, e := specSubstring(s, a, nil)
	if !errMatches(err, e) || err == nil && got != NewString(want) {
		t.Fatalf("substring(%q, %#v) = %#v, %v; model %q, %q", s, a, got, err, want, e)
	}
	got, err = Substring(s, a, b)
	want, e = specSubstring(s, a, &b)
	if !errMatches(err, e) || err == nil && got != NewString(want) {
		t.Fatalf("substring(%q, %#v, %#v) = %#v, %v; model %q, %q", s, a, b, got, err, want, e)
	}
	if got, want := NormalizeSpace(s), specNormalizeSpace(s); got != want {
		t.Fatalf("normalize-space(%q) = %q; model %q", s, got, want)
	}
	// The fold over a, b and up to three pool atoms picked by pick.
	seq := []Item{a, b}
	for k := 0; k < int(pick%4); k++ {
		seq = append(seq, specAtoms[int(pick>>(2+4*k))%len(specAtoms)])
	}
	for op := AggSum; op <= AggMin; op++ {
		var agg Aggregate
		var err error
		for _, it := range seq {
			if err = agg.Add(op, it); err != nil {
				break
			}
		}
		got, ok := agg.Result(op)
		want, wok, e := specAggregate(op, seq)
		switch {
		case !errMatches(err, e):
			t.Fatalf("fn:%s(%#v): error %v; model %q", op, seq, err, e)
		case err != nil:
		case ok != wok:
			t.Fatalf("fn:%s(%#v): ok %v; model %v", op, seq, ok, wok)
		case op == AggMax || op == AggMin:
			if !specSame(got, want) {
				t.Fatalf("fn:%s(%#v) = %#v; model %#v", op, seq, got, want)
			}
		default:
			if n, _ := specNumeric(want); !sameNum(got, n) {
				t.Fatalf("fn:%s(%#v) = %#v; model %#v", op, seq, got, want)
			}
		}
	}
}

// FuzzScalarSpec checks the scalar library against the spec model: Arith,
// CompareValue, CompareGeneral, OrderCompare, SameAtomicValue and
// DistinctKey, ParseDouble, the rounding family, Negate, Substring,
// NormalizeSpace and the Aggregate fold.
func FuzzScalarSpec(f *testing.F) {
	const max, min = math.MaxInt64, math.MinInt64
	for _, c := range []struct {
		ka, kb uint8
		ia, ib int64
		fa, fb float64
		s      string
	}{
		{0, 0, max, 1, 0, 0, "12345"},                    // integer overflow
		{0, 0, min, -1, 0, 0, " 1.5 "},                   // min idiv -1, abs(min)
		{0, 0, 1<<53 + 1, 1 << 53, 0, 0, "a\u00a0b"},     // beyond 2⁵³; a non-XML space
		{0, 1, 1<<53 + 1, 0, 0, 1 << 53, "a \t\r\n b  "}, // integer against its rounded double
		{1, 1, 0, 0, 0, math.Copysign(0, -1), "0"},       // ±0: unary minus flips a zero's sign
		{1, 1, 0, 0, 2.5, -2.5, "INF"},
		{1, 1, 0, 0, 1.5, 2.6, "12345"},
		{1, 1, 0, 0, -42, math.Inf(1), "12345"},
		{1, 0, 0, max, -0.5, 0, "-0"},
		{1, 1, 0, 0, 4503599627370497, 0.49999999999999994, "1e400"},
		{1, 1, 0, 0, 1e300, 1e-300, "+INF"},
		{1, 1, 0, 0, math.NaN(), math.Inf(-1), "NaN"},
		{2, 4, 1, 1, 0, 0, " true "},
		{2, 0, 0, 3, 0, 0, " 12 "},
		{3, 3, 0, 0, 0, 0, "1.5"},
		{3, 0, 0, 1, 0, 0, "abc"},
		{4, 4, 1, 0, 0, 0, "inf"},
		{2, 2, 0, 0, 0, 0, "0x1p3"},
	} {
		for _, pick := range []uint16{0, 1, 0x2346, 0xfff3} {
			f.Add(c.ka, c.kb, c.ia, c.ib, c.fa, c.fb, c.s, pick)
		}
	}
	f.Fuzz(func(t *testing.T, ka, kb uint8, ia, ib int64, fa, fb float64, s string, pick uint16) {
		if !utf8.ValidString(s) {
			return // XQuery strings are character sequences
		}
		checkScalarSpec(t, specFuzzItem(ka, ia, fa, s), specFuzzItem(kb, ib, fb, specNormalizeSpace(s)), s, pick)
	})
}

// TestScalarSpecPool runs the model check over every pair of pool atoms.
func TestScalarSpecPool(t *testing.T) {
	for _, a := range specAtoms {
		for _, b := range specAtoms {
			for _, s := range []string{"", "12345", " a  b\t", "été"} {
				checkScalarSpec(t, a, b, s, 0x1b7)
			}
		}
	}
}
