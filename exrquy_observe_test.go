package exrquy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmarkq"
)

// observeEngine is an engine over one factor-0.02 XMark document, in
// ordering mode unordered, plus the given options.
func observeEngine(opts ...Option) *Engine {
	e := New(append([]Option{WithOrdering(Unordered)}, opts...)...)
	e.LoadXMark("auction.xml", 0.02)
	return e
}

func runQ8(t *testing.T, e *Engine) *Result {
	t.Helper()
	q, err := e.Compile(xmarkq.Get(8).Text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// profileOrigin is the profile row an operator record is charged to.
func profileOrigin(op OpStats) string {
	if op.Origin != "" {
		return op.Origin
	}
	return "(" + op.Kind + ")"
}

// TestObservabilityViewsAgree runs XMark Q8 with collection on, serially
// and on a four-worker morsel pool, and checks that the profile, the
// per-operator stats and EXPLAIN ANALYZE are views of the same records.
func TestObservabilityViewsAgree(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", par), func(t *testing.T) {
			collected := runQ8(t, observeEngine(WithCollect(true), WithParallelism(par)))
			st := collected.Stats()
			if st == nil {
				t.Fatal("Stats() = nil with WithCollect(true)")
			}

			// The profile is the records rolled up by origin.
			want := map[string]ProfileEntry{}
			morsels := int64(0)
			for _, op := range st.Ops {
				o := profileOrigin(op)
				e := want[o]
				e.Origin = o
				e.Duration += max(op.Wall, op.Busy)
				e.Ops++
				e.Rows += int(op.RowsOut)
				want[o] = e

				var m int64
				var busy time.Duration
				for _, w := range op.Workers {
					m += w.Morsels
					busy += w.Busy
				}
				if m != op.Morsels || busy != op.Busy {
					t.Errorf("#%d %s: workers sum to %d morsels/%v busy, record says %d/%v", op.Node, op.Kind, m, busy, op.Morsels, op.Busy)
				}
				morsels += op.Morsels
			}
			if par > 1 && morsels == 0 {
				t.Error("no operator ran morsel-wise on the four-worker pool: the split check is vacuous")
			}
			prof := collected.Profile()
			if len(prof) != len(want) {
				t.Errorf("profile has %d origins, the stats roll up to %d", len(prof), len(want))
			}
			for i, e := range prof {
				if e != want[e.Origin] {
					t.Errorf("profile %+v, stats roll up to %+v", e, want[e.Origin])
				}
				if i > 0 && e.Duration > prof[i-1].Duration {
					t.Errorf("profile not by descending duration at %d", i)
				}
			}

			// Without collection the profile has the same rows and counts.
			plain := runQ8(t, observeEngine(WithParallelism(par)))
			if plain.Stats() != nil {
				t.Error("Stats() non-nil without collection")
			}
			if len(plain.Profile()) != len(prof) {
				t.Errorf("uncollected profile has %d origins, collected %d", len(plain.Profile()), len(prof))
			}
			for _, e := range plain.Profile() {
				if w := want[e.Origin]; e.Ops != w.Ops || e.Rows != w.Rows {
					t.Errorf("uncollected %q: ops=%d rows=%d, collected ops=%d rows=%d", e.Origin, e.Ops, e.Rows, w.Ops, w.Rows)
				}
			}

			// EXPLAIN ANALYZE reports the same memo hits.
			q, err := observeEngine(WithParallelism(par)).Compile(xmarkq.Get(8).Text)
			if err != nil {
				t.Fatal(err)
			}
			_, text, err := q.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if hits := fmt.Sprintf(", %d memo hit(s),", st.MemoHits); st.MemoHits == 0 || !strings.Contains(text, hits) {
				t.Errorf("Analyze summary lacks %q:\n%s", hits, text)
			}
		})
	}
}

// TestMemoHitsCountedWithoutCollection: engine_memo_hits_total is an
// always-on counter, so a run without collection moves it by the memo
// hits a collected run of the same plan reports.
func TestMemoHitsCountedWithoutCollection(t *testing.T) {
	hits := runQ8(t, observeEngine(WithCollect(true))).Stats().MemoHits
	if hits == 0 {
		t.Fatal("Q8 reports no memo hits: the check is vacuous")
	}
	counter := func() int64 {
		for _, m := range Metrics() {
			if m.Name == "engine_memo_hits_total" {
				return m.Value
			}
		}
		t.Fatal("engine_memo_hits_total not registered")
		return 0
	}
	e := observeEngine()
	before := counter()
	runQ8(t, e)
	if got := counter() - before; got != hits {
		t.Errorf("engine_memo_hits_total moved by %d over an uncollected run, want %d", got, hits)
	}
}
