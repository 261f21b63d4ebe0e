package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1106 {
		t.Errorf("histogram count/sum = %d/%d, want 6/1106", h.Count(), h.Sum())
	}
	var total int64
	for _, b := range h.Buckets() {
		total += b.Count
	}
	if total != 6 {
		t.Errorf("bucket counts sum to %d, want 6", total)
	}

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Error("snapshot not sorted by name")
		}
	}
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "c") || !strings.Contains(sb.String(), "count=6") {
		t.Errorf("text snapshot missing entries:\n%s", sb.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

// TestCollectorAggregation: the profile is the operator records rolled
// up by origin — Duration sums Wall, Ops counts records, Rows
// sums RowsOut, entries come by descending Duration with ties in origin
// order — and RunStats.Op finds a record by plan node id.
func TestCollectorAggregation(t *testing.T) {
	ms := time.Millisecond
	ops := []OpRecord{
		{Wall: 2 * ms, RowsOut: 20},
		{Wall: 4 * ms, RowsOut: 10},
		{Wall: 3 * ms, RowsOut: 1},
		{Wall: ms, RowsOut: 5},
		{Wall: 2 * ms, RowsOut: 2},
	}
	of := []int32{0, 1, 0, 2, 3}
	prof := RollUp(ops, of, []string{"for $x", "(step)", "(rownum)", "(doc)"})
	want := []ProfileEntry{
		{Origin: "for $x", Duration: 5 * ms, Ops: 2, Rows: 21},
		{Origin: "(step)", Duration: 4 * ms, Ops: 1, Rows: 10},
		{Origin: "(doc)", Duration: 2 * ms, Ops: 1, Rows: 2},
		{Origin: "(rownum)", Duration: ms, Ops: 1, Rows: 5},
	}
	if len(prof) != len(want) {
		t.Fatalf("RollUp = %+v, want %+v", prof, want)
	}
	for i := range want {
		if prof[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, prof[i], want[i])
		}
	}
	if got := RollUp(ops[:3], of[:3], []string{"for $x", "(step)", "(a)", "(b)"}); got[2].Origin != "(a)" || got[3].Origin != "(b)" || got[2].Ops != 0 {
		t.Errorf("ties must keep origin order: %+v", got)
	}

	st := &RunStats{Ops: make([]OpStats, len(ops))}
	for i, node := range []int{1, 3, 4, 7, 9} {
		st.Ops[i] = OpStats{Node: node, OpRecord: ops[i]}
	}
	if op := st.Op(3); op == nil || op.RowsOut != 10 {
		t.Errorf("Op(3) = %+v", op)
	}
	if st.Op(2) != nil || st.Op(99) != nil {
		t.Error("Op of an unevaluated node should be nil")
	}
}

func TestJSONTraceIsValidTraceEventJSON(t *testing.T) {
	var sb strings.Builder
	tr := NewJSONTrace(&sb)
	end := tr.StartSpan(0, "phase", "compile")
	inner := tr.StartSpan(1, "op", `doc "auction.xml"`)
	inner()
	end()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	// Spans close inner-first.
	if events[0].Name != `doc "auction.xml"` || events[0].Cat != "op" || events[0].Tid != 1 {
		t.Errorf("inner span wrong: %+v", events[0])
	}
	if events[1].Name != "compile" || events[1].Ph != "X" {
		t.Errorf("outer span wrong: %+v", events[1])
	}
	if events[1].Dur < events[0].Dur {
		t.Error("outer span should not be shorter than the inner one")
	}
}

func TestJSONTraceConcurrentSpans(t *testing.T) {
	var sb strings.Builder // all writes funnel through the trace's own lock
	tr := NewJSONTrace(&sb)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.StartSpan(w+1, "op", "span")()
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	if len(events) != 200 {
		t.Errorf("got %d events, want 200", len(events))
	}
}
