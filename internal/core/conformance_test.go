package core

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"repro/internal/xquery"
)

// TestFOExamples runs the scalar conformance table
// (testdata/fo_examples.txt) through the pipeline under ordering mode
// ordered and unordered, and through the reference interpreter: each
// must give the expected serialisation, or an error naming the expected
// F&O code.
func TestFOExamples(t *testing.T) {
	f, err := os.Open("testdata/fo_examples.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, docs := buildStore(t)
	ordered, unordered := xquery.Ordered, xquery.Unordered
	modes := map[string]Config{"ordered": {ForceOrdering: &ordered}, "unordered": {ForceOrdering: &unordered}}
	sc := bufio.NewScanner(f)
	rows := 0
	for line := 1; sc.Scan(); line++ {
		if text := strings.TrimSpace(sc.Text()); text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		q, want, ok := strings.Cut(sc.Text(), " => ")
		if !ok {
			t.Fatalf("fo_examples.txt:%d: no \" => \"", line)
		}
		rows++
		check := func(who string, got string, err error) {
			code, isErr := strings.CutPrefix(want, "!")
			switch {
			case isErr && (err == nil || !strings.Contains(err.Error(), code)):
				t.Errorf("fo_examples.txt:%d: %s: %s = %q, %v; want an error naming %s", line, who, q, got, err, code)
			case !isErr && (err != nil || got != want):
				t.Errorf("fo_examples.txt:%d: %s: %s = %q, %v; want %q", line, who, q, got, err, want)
			}
		}
		got, _, err := tryInterp(store, docs, q)
		check("oracle", got, err)
		for name, cfg := range modes {
			got, _, err := tryPipeline(store, docs, q, cfg)
			check("pipeline, "+name, got, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("fo_examples.txt has no rows")
	}
}
