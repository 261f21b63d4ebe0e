package core

import (
	"strings"
	"testing"
)

// TestMissingNameIsEmpty: a name test for a name no node of the document
// or the constructed fragment carries — one its dictionary lacks — is
// the empty sequence on every axis, in the pipeline and the oracle.
func TestMissingNameIsEmpty(t *testing.T) {
	store, docs := buildStore(t)
	for q, want := range map[string]string{
		`doc("auction-mini.xml")//nosuchname`:                           ``,
		`count(doc("auction-mini.xml")/site/nosuchname)`:                `0`,
		`count(doc("auction-mini.xml")//item/@nosuchname)`:              `0`,
		`count(doc("auction-mini.xml")//item/self::nosuchname)`:         `0`,
		`count(doc("auction-mini.xml")//itemref/parent::nosuchname)`:    `0`,
		`count(<a><b/></a>//nosuchname)`:                                `0`,
		`count(<a>{ doc("auction-mini.xml")//itemref }</a>/nosuchname)`: `0`,
	} {
		got, _, err := tryInterp(store, docs, q)
		if err != nil || got != want {
			t.Errorf("oracle: %s = %q, %v; want %q", q, got, err, want)
		}
		got, _, err = tryPipeline(store, docs, q, Config{})
		if err != nil || got != want {
			t.Errorf("pipeline: %s = %q, %v; want %q", q, got, err, want)
		}
	}
}

// TestIDivOverDoublesErrors: an idiv whose double quotient is NaN,
// infinite or beyond xs:integer is an arithmetic error in the pipeline
// and the oracle alike, not the integer -9223372036854775808.
func TestIDivOverDoublesErrors(t *testing.T) {
	store, docs := buildStore(t)
	for _, q := range []string{`(1 div 0e0) idiv 1`, `number("x") idiv 2`, `1e300 idiv 1e-300`} {
		_, _, ierr := tryInterp(store, docs, q)
		_, _, perr := tryPipeline(store, docs, q, Config{})
		for who, err := range map[string]error{"oracle": ierr, "pipeline": perr} {
			if err == nil || !strings.Contains(err.Error(), "idiv quotient out of integer range") {
				t.Errorf("%s: %s: got %v, want the idiv range error", who, q, err)
			}
		}
	}
}

// TestScalarErrorParity: the rounding family over xs:string or
// xs:boolean is a type error, and fn:max/fn:min over incomparable types
// is FORG0006, in the pipeline and the oracle alike.
func TestScalarErrorParity(t *testing.T) {
	store, docs := buildStore(t)
	for q, code := range map[string]string{
		`round("1.5")`: "XPTY0004", `floor("2.5")`: "XPTY0004", `abs(true())`: "XPTY0004",
		`max((1, "a"))`: "FORG0006", `min(("a", true()))`: "FORG0006",
	} {
		_, _, ierr := tryInterp(store, docs, q)
		_, _, perr := tryPipeline(store, docs, q, Config{})
		for who, err := range map[string]error{"oracle": ierr, "pipeline": perr} {
			if err == nil || !strings.Contains(err.Error(), code) {
				t.Errorf("%s: %s: got %v, want an error naming %s", who, q, err, code)
			}
		}
	}
}
