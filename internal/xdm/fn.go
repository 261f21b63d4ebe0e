package xdm

import (
	"fmt"
	"math"
)

// The F&O functions with semantics of their own, written once: the
// reference interpreter and the engine's boxed row loops both call them.

// Round is fn:round: an integer is itself, a double rounds half toward
// positive infinity (RoundHalfUp).
func Round(it Item) (Item, error) { return rounding(it, "round", RoundHalfUp) }

// Floor is fn:floor.
func Floor(it Item) (Item, error) { return rounding(it, "floor", math.Floor) }

// Ceiling is fn:ceiling.
func Ceiling(it Item) (Item, error) { return rounding(it, "ceiling", math.Ceil) }

// Abs is fn:abs; the absolute value of math.MinInt64 is ErrIntOverflow.
func Abs(it Item) (Item, error) {
	if it.Kind != KInteger {
		return rounding(it, "abs", math.Abs)
	}
	if it.I >= 0 {
		return it, nil
	}
	return Negate(it)
}

// Negate is unary minus: an integer negates exactly (the negation of
// math.MinInt64 is ErrIntOverflow), and a double or an untypedAtomic,
// cast to xs:double, flips its sign, so -(0e0) is -0.
func Negate(it Item) (Item, error) {
	if it.Kind == KInteger {
		i, err := IntArith(0, it.I, OpSub)
		return NewInt(i), err
	}
	f, err := arithOperand(it)
	if err != nil {
		return Item{}, err
	}
	return NewDouble(-f), nil
}

// rounding applies f to a numeric argument: an integer is returned as
// it is, an untypedAtomic is cast to xs:double first, and any other kind
// is a type error.
func rounding(it Item, name string, f func(float64) float64) (Item, error) {
	switch it.Kind {
	case KInteger:
		return it, nil
	case KDouble, KUntyped:
		d, err := arithOperand(it)
		if err != nil {
			return Item{}, err
		}
		return NewDouble(f(d)), nil
	}
	return Item{}, fmt.Errorf("xdm: fn:%s over %s (XPTY0004)", name, it.Kind)
}

// Substring is fn:substring(s, start) and, given a length,
// fn:substring(s, start, length): the characters at 1-based positions p
// with round(start) <= p, and p < round(start) + round(length), in
// doubles, so a NaN bound selects nothing. start and length are cast to
// xs:double by AsDouble.
func Substring(s string, start Item, length ...Item) (Item, error) {
	lo, err := start.AsDouble()
	if err != nil {
		return Item{}, err
	}
	lo, hi := RoundHalfUp(lo), math.Inf(1)
	if len(length) > 0 {
		n, err := length[0].AsDouble()
		if err != nil {
			return Item{}, err
		}
		hi = lo + RoundHalfUp(n)
	}
	from, to, p := len(s), len(s), 0.0
	for i := range s {
		if p++; p >= lo && from == len(s) {
			from = i
		}
		if !(p < hi) {
			to = i
			break
		}
	}
	if from >= to {
		return NewString(""), nil
	}
	return NewString(s[from:to]), nil
}

// NormalizeSpace is fn:normalize-space: leading and trailing XML
// whitespace stripped, and every inner run of it replaced by one space.
func NormalizeSpace(s string) string {
	b := make([]byte, 0, len(s))
	gap := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case IsXMLSpace(c):
			gap = len(b) > 0
		case gap:
			b, gap = append(b, ' ', c), false
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

// AggOp names the aggregate an Aggregate folds.
type AggOp uint8

// Aggregate functions.
const (
	AggSum AggOp = iota
	AggAvg
	AggMax
	AggMin
)

func (op AggOp) String() string { return [...]string{"sum", "avg", "max", "min"}[op] }

// Aggregate is the running state of fn:sum, fn:avg, fn:max or fn:min
// over one sequence, fed member by member in sequence order. It is a
// plain value that allocates nothing per member, so a caller keeps one
// per group. An untypedAtomic member is cast to xs:double. Integer
// members sum in a checked int64 until a double arrives; from then on the
// sum is a double, as the left fold of + over the members is.
type Aggregate struct {
	n    int64
	sum  int64   // sum of the members while all are integers
	f    float64 // the sum once a member was a double
	dbl  bool
	best Item // max/min: the extreme member so far
}

// Add folds one member into the aggregate.
func (a *Aggregate) Add(op AggOp, it Item) error {
	if it.Kind == KUntyped {
		f, err := ParseDouble(it.S)
		if err != nil {
			return err
		}
		it = NewDouble(f)
	}
	switch {
	case op == AggSum || op == AggAvg:
		switch {
		case it.Kind == KInteger && !a.dbl:
			s, err := IntArith(a.sum, it.I, OpAdd)
			if err != nil {
				return err
			}
			a.sum = s
		case it.Kind == KInteger:
			a.f += float64(it.I)
		case it.Kind == KDouble && a.n == 0:
			a.f, a.dbl = it.F, true
		case it.Kind == KDouble:
			if !a.dbl {
				a.f, a.dbl = float64(a.sum), true
			}
			a.f += it.F
		default:
			return fmt.Errorf("xdm: fn:%s over %s (FORG0006)", op, it.Kind)
		}
	case valueClass(it.Kind) == classNode:
		return fmt.Errorf("xdm: fn:%s over %s (FORG0006)", op, it.Kind)
	case a.n == 0:
		a.best = it
	case valueClass(it.Kind) != valueClass(a.best.Kind):
		return fmt.Errorf("xdm: fn:%s over %s and %s (FORG0006)", op, a.best.Kind, it.Kind)
	case isNaN(a.best):
	case isNaN(it):
		a.best = it // a NaN member makes the result NaN
	default:
		if c := OrderCompare(it, a.best); (op == AggMax && c > 0) || (op == AggMin && c < 0) {
			a.best = it
		}
	}
	a.n++
	return nil
}

func isNaN(it Item) bool { return it.Kind == KDouble && it.F != it.F }

// Result is the aggregate of the members added so far; ok is false when
// that is the empty sequence (fn:avg, fn:max and fn:min of no members).
func (a *Aggregate) Result(op AggOp) (it Item, ok bool) {
	switch {
	case a.n == 0:
		return NewInt(0), op == AggSum
	case op == AggSum && a.dbl:
		return NewDouble(a.f), true
	case op == AggSum:
		return NewInt(a.sum), true
	case op == AggAvg && a.dbl:
		return NewDouble(a.f / float64(a.n)), true
	case op == AggAvg:
		return NewDouble(float64(a.sum) / float64(a.n)), true
	}
	return a.best, true
}
