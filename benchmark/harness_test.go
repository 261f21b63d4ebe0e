package main

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The harness's own arithmetic and its contract with the driver. Nothing
// here reads a clock: the tests are deterministic and take milliseconds.

func TestManifestMatchesHarness(t *testing.T) {
	m, err := loadManifest("../" + manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range m.validate() {
		t.Error(problem)
	}
	if len(m.Workloads) != 5 || len(m.EndToEnd) != 7 || len(m.PerLayer) > 128 {
		t.Errorf("manifest has %d workloads, %d end-to-end and %d per-layer metrics; want 5, 7 and at most 128",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(m *manifest){
		"name with a space":          func(m *manifest) { m.PerLayer[0].Name = "parse ms" },
		"name used twice":            func(m *manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"end-to-end without a bound": func(m *manifest) { m.EndToEnd[1].Bound = nil },
		"bound above a quarter":      func(m *manifest) { b := 0.3; m.EndToEnd[1].Bound = &b },
		"per-layer with a bound":     func(m *manifest) { b := 0.1; m.PerLayer[0].Bound = &b },
		"metric the harness lacks": func(m *manifest) {
			m.PerLayer = append(m.PerLayer, manifestMetric{Name: "x.y", Unit: "ms", Better: "lower"})
		},
		"metric the manifest lacks": func(m *manifest) { m.PerLayer = m.PerLayer[1:] },
		"unit with a space":         func(m *manifest) { m.EndToEnd[2].Unit = "m s" },
		"direction":                 func(m *manifest) { m.EndToEnd[2].Better = "faster" },
		"why of two lines":          func(m *manifest) { m.Workloads[0].Why = "a\nb" },
		"workload missing":          func(m *manifest) { m.Workloads = m.Workloads[:4] },
		"no setup_s":                func(m *manifest) { m.EndToEnd[0].Name = "setup_seconds" },
		"absolute command":          func(m *manifest) { m.Command = []string{"/bin/bash", "benchmark/run.sh"} },
		"path out of the repo":      func(m *manifest) { m.Paths = []string{"../benchmark"} },
		"run too long for the cap":  func(m *manifest) { m.RunSeconds = 60 },
	}
	for name, mutate := range cases {
		m, err := loadManifest("../" + manifestFile)
		if err != nil {
			t.Fatal(err)
		}
		mutate(m)
		if len(m.validate()) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReportEmitsDeclaredNames(t *testing.T) {
	r := newReport("paths")
	r.setEndToEnd(&timed{wall: time.Second, attempted: 1}, []float64{1}, []float64{1})
	names := func(m any) []string {
		var out []string
		for _, k := range reflect.ValueOf(m).MapKeys() {
			out = append(out, k.String())
		}
		sort.Strings(out)
		return out
	}
	want := func(defs []metricDef) []string {
		out := defNames(defs)
		sort.Strings(out)
		return out
	}
	if got, want := names(r.endToEnd), want(endToEndDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics emitted %v, declared %v", got, want)
	}
	if got, want := names(r.perLayer), want(perLayerDefs); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics emitted %v, declared %v", got, want)
	}
	for span, metric := range spanLayers {
		if _, ok := r.perLayer[metric]; !ok {
			t.Errorf("span %s feeds undeclared metric %s", span, metric)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{0.99, 990}, {0.5, 500}, {1, 1000}, {0.001, 1}, {0.0001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(xs, n=4);
// these are its results.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 5, 11},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize([]float64{90, 100, 110, 100, 100}); s.Median != 100 || s.spread() != 0.1 {
		t.Errorf("summarize: median %g spread %g, want 100 and 0.1", s.Median, s.spread())
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100
	//   a 10..40
	//     a1 15..25
	//   b 30..60   (overlaps a: the union 10..60 counts once)
	//   c 90..120  (runs past its parent: only 90..100 is inside)
	// open: never ended, ignored
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "leaf", ID: 2, Parent: 1, Start: 15, End: 25},
		{Name: "b", ID: 3, Parent: 0, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 0, Start: 90, End: 120},
		{Name: "open", ID: 5, Parent: 0, Start: 95, End: -1},
	}
	want := map[string]time.Duration{"root": 40, "a": 20, "leaf": 10, "b": 30, "c": 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := totalTime(spans, "a"); got != 30 {
		t.Errorf("totalTime(a) = %v, want 30", got)
	}
}

func TestSpanLayersPerPass(t *testing.T) {
	// Two passes; vm.run takes 6 in the first and 10 in the second, and
	// the op span around it 2 more each time: the median pass reports 8.
	var spans []span
	add := func(name string, parent, req int, start, end time.Duration) int {
		spans = append(spans, span{Name: name, ID: len(spans), Parent: parent, Req: req, Start: start * time.Millisecond, End: end * time.Millisecond})
		return len(spans) - 1
	}
	for req, run := range []time.Duration{6, 10} {
		base := time.Duration(req) * 100
		p := add("pass", -1, req, base, base+run+2)
		o := add("op", p, req, base, base+run+2)
		add("vm.run", o, req, base+1, base+1+run)
	}
	r := newReport("paths")
	coverage := r.setSpanLayers(spans)
	if got := r.perLayer["vm.run_ms"]; got != 8 {
		t.Errorf("vm.run_ms = %g, want 8", got)
	}
	if want := 16.0 / 20.0; coverage != want {
		t.Errorf("coverage = %g, want %g", coverage, want)
	}
}

func TestTracerNilAndChrome(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", -1, 0, 0)) // must not panic
	if off.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
	tr := newTracer()
	root := tr.begin("pass", -1, 7, 0)
	tr.end(tr.begin("vm.run", root, 7, 0))
	tr.end(root)
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"pass"`, `"name":"vm.run"`, `"ph":"X"`, `"parent":0`, `"req":7`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("chrome trace lacks %s:\n%s", want, buf.String())
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	const factor = 0.001
	a, again, b := sha256.Sum256(genXML(factor, 1)), sha256.Sum256(genXML(factor, 1)), sha256.Sum256(genXML(factor, 2))
	if a != again {
		t.Error("the same seed generated two different documents")
	}
	if a == b {
		t.Error("seeds 1 and 2 generated the same document")
	}
	if !reflect.DeepEqual(shuffle(1, 3, 30), shuffle(1, 3, 30)) {
		t.Error("the same seed and stream gave two request orders")
	}
	if reflect.DeepEqual(shuffle(1, 3, 30), shuffle(2, 3, 30)) || reflect.DeepEqual(shuffle(1, 3, 30), shuffle(1, 4, 30)) {
		t.Error("another seed or stream gave the same request order")
	}
	order := shuffle(1, 0, 30)
	sort.Ints(order)
	for i, v := range order {
		if i != v {
			t.Fatalf("shuffle is not a permutation: %v", order)
		}
	}
}

func TestRequestsCarryTheModeInTheText(t *testing.T) {
	reqs := requestsFor(pathQueries)
	if len(reqs[ordered]) != 15 || len(reqs[unordered]) != 15 {
		t.Fatalf("paths has %d ordered and %d unordered requests, want 15 each", len(reqs[ordered]), len(reqs[unordered]))
	}
	for i, rq := range reqs[unordered] {
		if rq.Text != unorderedProlog+reqs[ordered][i].Text || rq.Query != reqs[ordered][i].Query {
			t.Errorf("request %d: unordered text is not the prolog plus the ordered text", i)
		}
	}
	if len(requestsFor(joinQueries)[ordered])+len(reqs[ordered]) != len(requestsFor(allQueries)[ordered]) {
		t.Error("paths and joins do not partition the 20 queries")
	}
}
