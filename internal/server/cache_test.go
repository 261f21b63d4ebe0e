package server

import (
	"fmt"
	"testing"

	exrquy "repro"
)

func TestNormalizeQuery(t *testing.T) {
	cases := []struct {
		name string
		a, b string
		same bool
	}{
		{"whitespace runs", "for  $x in\n\t(1,2)\nreturn $x", "for $x in (1,2) return $x", true},
		{"leading/trailing", "  1 + 2  ", "1 + 2", true},
		{"comment dropped", "1 (: the answer :) + 2", "1 + 2", true},
		{"nested comment", "1 (: outer (: inner :) still out :) + 2", "1 + 2", true},
		{"comment acts as separator", "div(:c:)mod", "div mod", true},
		{"string literal spaces preserved", `"a  b"`, `"a b"`, false},
		{"string literal newline preserved", "\"a\nb\"", `"a b"`, false},
		{"comment-lookalike inside string", `"(: not a comment :)"`, `""`, false},
		{"single-quoted preserved", `'x  y'`, `'x y'`, false},
		{"doubled-quote escape stays inside", `"he said ""hi  there"""`, `"he said ""hi there"""`, false},
		{"whitespace after escaped quote", `"a""b"   1`, `"a""b" 1`, true},
		{"different queries differ", "1 + 2", "1 + 3", false},
	}
	for _, tc := range cases {
		na, nb := normalizeQuery(tc.a), normalizeQuery(tc.b)
		if (na == nb) != tc.same {
			t.Errorf("%s: normalize(%q)=%q vs normalize(%q)=%q, want same=%v",
				tc.name, tc.a, na, tc.b, nb, tc.same)
		}
	}
}

// TestNormalizeQueryPreservesMeaning compiles and runs a query and its
// normalization, pinning that normalization never changes results (the
// cache serves the plan compiled from whichever text arrived first).
func TestNormalizeQueryPreservesMeaning(t *testing.T) {
	eng := exrquy.New()
	queries := []string{
		"for  $x in\n\t(1, 2, 3)\n(: sum :)\nreturn $x + 1",
		`string-length("a  b (: x :) c")`,
		"concat('p  q',  \"r\ns\")",
	}
	for _, q := range queries {
		want, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		got, err := eng.Query(normalizeQuery(q))
		if err != nil {
			t.Fatalf("normalized %q: %v", normalizeQuery(q), err)
		}
		wx, _ := want.XML()
		gx, _ := got.XML()
		if wx != gx {
			t.Errorf("normalization changed meaning of %q: %q vs %q", q, wx, gx)
		}
	}
}

func TestPlanCacheLRU(t *testing.T) {
	eng := exrquy.New()
	mk := func(i int) *exrquy.Query {
		q, err := eng.Compile(fmt.Sprintf("%d + 0", i))
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return q
	}
	c := newPlanCache(2)
	c.put("a", mk(1), nil)
	c.put("b", mk(2), nil)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// a is now most recent; inserting c must evict b.
	c.put("c", mk(3), nil)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, cap 2", st)
	}
}

// TestPlanCacheScopedInvalidation pins the scoped-invalidation contract:
// reloading one document drops exactly the cached plans that read it —
// plans over other documents and document-free plans stay cached.
func TestPlanCacheScopedInvalidation(t *testing.T) {
	eng := exrquy.New()
	mk := func(i int) *exrquy.Query {
		q, err := eng.Compile(fmt.Sprintf("%d + 0", i))
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return q
	}
	c := newPlanCache(8)
	c.put("reads-a", mk(1), []string{"a.xml"})
	c.put("reads-b", mk(2), []string{"b.xml"})
	c.put("reads-ab", mk(3), []string{"a.xml", "b.xml"})
	c.put("pure", mk(4), nil)

	if dropped := c.invalidateDoc("a.xml"); dropped != 2 {
		t.Fatalf("invalidateDoc(a.xml) dropped %d entries, want 2", dropped)
	}
	for key, want := range map[string]bool{
		"reads-a": false, "reads-ab": false, // read a.xml → stale
		"reads-b": true, "pure": true, // untouched → warm
	} {
		if _, ok := c.get(key); ok != want {
			t.Errorf("after invalidateDoc(a.xml): get(%q) = %v, want %v", key, ok, want)
		}
	}
	st := c.stats()
	if st.ScopedInvalidations != 1 || st.ScopedDropped != 2 {
		t.Fatalf("scoped stats = %+v, want 1 scoped invalidation dropping 2", st)
	}

	// A reload of a document no cached plan reads drops nothing.
	if dropped := c.invalidateDoc("zzz.xml"); dropped != 0 {
		t.Fatalf("invalidateDoc(zzz.xml) dropped %d entries, want 0", dropped)
	}
	if _, ok := c.get("pure"); !ok {
		t.Fatal("document-free plan lost to an unrelated invalidation")
	}
}
