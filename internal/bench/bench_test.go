// Package bench holds the paper's evaluation (§5) over the 20 XMark
// queries: the Figure 12 speedup of order indifference, the Table 2
// profile of Q11, the plan sizes behind Figure 6/9 and §4.1, and the
// ablation over the optimizer's rewrites.
//
// The tests check each claim by counting — cells and ρ operators in the
// per-operator record (engine.Result.Stats), plan statistics, and golden
// tables under bench-results/ — so they read no clock. The benchmarks
// time the same runs; -benchtime sets the repeats:
//
//	go test -run '^$' -bench Figure12 ./internal/bench
//	go test -run '^$' -bench Table2 ./internal/bench
//	go test -run '^$' -bench Ablation ./internal/bench
package bench

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// Every run is bounded as the paper's were: a run past the 30 s cutoff,
// or past maxCells of intermediate results (~3 GB of items), is a cutoff,
// the analogue of a gap in the paper's Figure 12.
const (
	cutoff   = 30 * time.Second
	maxCells = 60 << 20
)

// env is one XMark instance.
type env struct {
	store *xmltree.Store
	docs  map[string][]uint32
}

func newEnv(factor float64) env {
	store := xmltree.NewStore()
	return env{store, map[string][]uint32{"auction.xml": {store.Add(xmark.Generate(xmark.Config{Factor: factor}))}}}
}

func bounded(cfg core.Config) core.Config {
	cfg.Timeout, cfg.MaxCells, cfg.Compiled = cutoff, maxCells, true
	return cfg
}

// baseline is §5's order-ignorant compiler.
func baseline() core.Config { return bounded(core.BaselineConfig()) }

// unordered is the order-indifference-aware compiler under ordering mode
// unordered, with the optimizer rewrites o.
func unordered(o opt.Options) core.Config {
	u := xquery.Unordered
	return bounded(core.Config{Indifference: true, ForceOrdering: &u, Opt: o})
}

// ablation switches the rewrites on one by one, beside the baseline.
var (
	ablationQueries = []int{1, 6, 7, 11, 19}
	ablation        = []struct {
		name string
		cfg  core.Config
	}{
		{"none", unordered(opt.Options{})},
		{"analysis", unordered(opt.Options{ColumnAnalysis: true})},
		{"analysis+relax", unordered(opt.Options{ColumnAnalysis: true, RownumRelax: true})},
		{"analysis+merge", unordered(opt.Options{ColumnAnalysis: true, StepMerge: true})},
		{"all", unordered(opt.AllOptions())},
		{"ordered", baseline()},
	}
)

func prepare(tb testing.TB, query string, cfg core.Config) *core.Prepared {
	p, err := core.Prepare(query, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// exec runs p once. A run past the cutoff or the cell bound reports cut
// and no error: it is a result, not a failure.
func exec(e env, p *core.Prepared) (res *engine.Result, d time.Duration, cut bool, err error) {
	start := time.Now()
	res, err = p.Run(e.store, e.docs)
	d = time.Since(start)
	if errors.Is(err, engine.ErrCutoff) {
		return nil, d, true, nil
	}
	return res, d, false, err
}

// record runs query under cfg and returns its operator records.
func record(t *testing.T, e env, query string, cfg core.Config) *obs.RunStats {
	t.Helper()
	cfg.Collect = true
	res, _, cut, err := exec(e, prepare(t, query, cfg))
	if err != nil || cut {
		t.Fatalf("%.40q: cutoff %v, error %v", query, cut, err)
	}
	return res.Stats
}

// sum adds up measure over the operators of kind, or over all when kind
// is "".
func sum(st *obs.RunStats, kind string, measure func(obs.OpStats) int64) (n int64) {
	for _, op := range st.Ops {
		if kind == "" || op.Kind == kind {
			n += measure(op)
		}
	}
	return n
}

func cells(op obs.OpStats) int64 { return op.Cells }
func ops(obs.OpStats) int64      { return 1 }

// table2 sums measure by Table 2's operator classes. π is left out of
// all: it aliases its input columns, bookkeeping rather than work.
func table2(st *obs.RunStats, measure func(obs.OpStats) int64) (join, reorder, step, all int64) {
	for _, op := range st.Ops {
		m := measure(op)
		switch op.Kind {
		case "project":
			continue
		case "join", "cross", "semijoin":
			join += m
		case "rownum":
			reorder += m
		case "step":
			step += m
		}
		all += m
	}
	return join, reorder, step, all
}

// golden compares a regenerated table with bench-results/name; on a
// mismatch the test fails and prints the whole table.
func golden(t *testing.T, name, got string) {
	want, err := os.ReadFile("../../bench-results/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("bench-results/%s differs from the regenerated table:\n%s", name, got)
	}
}

// TestFigure12SmallSweep checks Figure 12's outliers by the work done:
// order indifference shrinks the cells of Q6 and Q7 the most of all 20
// queries (the paper: up to 10,000 % faster), and the drop is in the path
// steps, which step merging (§4.1) rewrites.
func TestFigure12SmallSweep(t *testing.T) {
	e := newEnv(0.002)
	type gain struct {
		query      string
		all, steps float64
	}
	var gains []gain
	for _, q := range xmarkq.All() {
		base, un := record(t, e, q.Text, baseline()), record(t, e, q.Text, unordered(opt.AllOptions()))
		gains = append(gains, gain{q.Name,
			float64(sum(base, "", cells)) / float64(sum(un, "", cells)),
			float64(sum(base, "step", cells)) / float64(sum(un, "step", cells))})
	}
	slices.SortFunc(gains, func(a, b gain) int { return cmp.Compare(b.all, a.all) })
	var report strings.Builder
	for _, g := range gains {
		fmt.Fprintf(&report, "\n%-4s %7.1f× fewer cells, %7.1f× fewer step cells", g.query, g.all, g.steps)
	}
	for _, g := range gains[:2] {
		if g.query != "Q6" && g.query != "Q7" || g.all < 50 || g.steps < 20 {
			t.Fatalf("want Q6 and Q7 first, each with ≥ 50× fewer cells and ≥ 20× fewer step cells:%s", &report)
		}
	}
	t.Logf("baseline against unordered at factor 0.002:%s", report.String())
}

// TestAblationRuns runs every ablation configuration, and checks on Q6's
// cells that step merging is the rewrite that decides the result: the
// column analysis with it takes Q6 to at most 1 % of the unoptimized
// cells, without it stays ≥ 10× above. With every rewrite, Q6 and Q7 keep
// no ρ (§7).
func TestAblationRuns(t *testing.T) {
	e := newEnv(0.002)
	q6 := map[string]int64{}
	for _, id := range ablationQueries {
		q := xmarkq.Get(id)
		for _, c := range ablation {
			st := record(t, e, q.Text, c.cfg)
			if id == 6 {
				q6[c.name] = sum(st, "", cells)
			}
			if n := sum(st, "rownum", ops); c.name == "all" && (id == 6 || id == 7) && n != 0 {
				t.Errorf("%s under every rewrite runs %d ρ, want 0 (§7)", q.Name, n)
			}
		}
	}
	if 100*q6["analysis+merge"] > q6["none"] || q6["analysis"] < 10*q6["analysis+merge"] {
		t.Errorf("want analysis+merge ≤ none/100 and analysis ≥ 10 × analysis+merge; Q6 cells by configuration: %v", q6)
	}
	t.Logf("Q6 cells by configuration: %v", q6)
}

// TestPlanSizesAllQueries compiles every query three ways — baseline,
// unordered before optimization, unordered after every rewrite — and
// checks the table against bench-results/plansizes.txt.
func TestPlanSizesAllQueries(t *testing.T) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s | %9s %6s | %9s %6s %6s | %9s %6s %6s\n",
		"query", "ord ops", "ρ", "unord ops", "ρ", "#", "opt ops", "ρ", "#")
	for _, q := range xmarkq.All() {
		ord := prepare(t, q.Text, baseline()).StatsAfter
		un := prepare(t, q.Text, unordered(opt.Options{})).StatsBefore
		op := prepare(t, q.Text, unordered(opt.AllOptions())).StatsAfter
		fmt.Fprintf(&sb, "%-5s | %9d %6d | %9d %6d %6d | %9d %6d %6d\n", q.Name,
			ord.Operators, ord.RowNums, un.Operators, un.RowNums, un.RowIDs, op.Operators, op.RowNums, op.RowIDs)
		if ord.RowNums == 0 && q.Name != "Q20" {
			// Every FLWOR query realizes some order interaction under
			// ordered mode. (Q20 is a single constructor over counts.)
			t.Errorf("%s: ordered plan has no ρ?", q.Name)
		}
		if op.Operators > un.Operators {
			t.Errorf("%s: optimization grew the plan %d -> %d", q.Name, un.Operators, op.Operators)
		}
		if op.RowNums > un.RowNums {
			t.Errorf("%s: optimization added sorts", q.Name)
		}
		// The Figure 6 claim for Q6. The canonical XMark text uses //site
		// (descendant-or-self + child = two extra steps over the paper's
		// /site rendering, which TestFigure6aOrderedPlan pins at exactly 5).
		if q.ID == 6 && (ord.RowNums != 7 || op.RowNums != 0) {
			t.Errorf("Q6 sorts: ordered %d, want 7 (Figure 6a + //site); optimized %d, want 0 (§7)", ord.RowNums, op.RowNums)
		}
	}
	golden(t, "plansizes.txt", sb.String())
}

// TestTable2ProfileShape checks the paper's structural claim about Q11 —
// join work and the reordering around it dominate, path steps are
// marginal next to them — on cells materialized per operator class, which
// is the same on every host; BenchmarkTable2 times the same classes.
// Since the inner loop is minted from the value join, both classes run
// over the qualifying pairs only, so steps are a visible share of the
// (much smaller) total. The roll-up by origin is checked against
// bench-results/table2_cells.txt.
func TestTable2ProfileShape(t *testing.T) {
	st := record(t, newEnv(0.05), xmarkq.Get(11).Text, baseline())
	join, reorder, step, materialized := table2(st, cells)
	var iterToSeq int64
	for _, op := range st.Ops {
		if op.Kind == "rownum" && strings.HasPrefix(op.Origin, "iter->seq order") {
			iterToSeq += op.Cells
		}
	}
	if join == 0 || iterToSeq == 0 {
		t.Fatalf("operator classes missing: join %d cells, iter->seq reorder %d cells", join, iterToSeq)
	}
	if 2*(join+reorder) < materialized {
		t.Errorf("join %d + reorder %d cells of %d materialized, expected the bulk (paper: ~90%% of time)", join, reorder, materialized)
	}
	if 5*step > join+reorder {
		t.Errorf("path step %d cells against %d of join and reorder, expected marginal (paper: <1%% of time)", step, join+reorder)
	}

	type row struct {
		origin           string
		ops, rows, cells int64
	}
	var rows []*row
	by := map[string]*row{}
	for _, op := range st.Ops {
		o := cmp.Or(op.Origin, "("+op.Kind+")")
		if by[o] == nil {
			by[o] = &row{origin: o}
			rows = append(rows, by[o])
		}
		by[o].ops++
		by[o].rows += op.RowsOut
		by[o].cells += op.Cells
	}
	slices.SortFunc(rows, func(a, b *row) int {
		return cmp.Or(cmp.Compare(b.cells, a.cells), cmp.Compare(a.origin, b.origin))
	})
	total := sum(st, "", cells)
	var sb strings.Builder
	fmt.Fprintf(&sb, "XMark Q11 at factor 0.05, baseline compiler: operators, rows and cells by origin\n")
	fmt.Fprintf(&sb, "%-34s %4s %10s %10s %7s\n", "origin", "ops", "rows", "cells", "share")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-34s %4d %10d %10d %6.1f%%\n", r.origin, r.ops, r.rows, r.cells, 100*float64(r.cells)/float64(total))
	}
	fmt.Fprintf(&sb, "%-34s %4d %10s %10d\n", "total", len(st.Ops), "", total)
	golden(t, "table2_cells.txt", sb.String())
}

// TestCutoffReported: a run past the cutoff is reported as a cutoff, not
// as an error.
func TestCutoffReported(t *testing.T) {
	cfg := baseline()
	cfg.Timeout = time.Nanosecond
	_, _, cut, err := exec(newEnv(0.005), prepare(t, `count(doc("auction.xml")//keyword)`, cfg))
	if err != nil {
		t.Fatalf("cutoff should not be an error: %v", err)
	}
	if !cut {
		t.Error("nanosecond cutoff not reported")
	}
}

// timed runs p once and returns its time in milliseconds. A cutoff is
// reported as the metric cutoff=1, and ok is false: the benchmark stops.
func timed(b *testing.B, e env, p *core.Prepared) (res *engine.Result, ms float64, ok bool) {
	res, d, cut, err := exec(e, p)
	if err != nil {
		b.Fatal(err)
	}
	if cut {
		b.ReportMetric(1, "cutoff")
	}
	return res, float64(d) / 1e6, !cut
}

func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}

// BenchmarkFigure12 times Figure 12: each query under the baseline and
// under the order-indifference-aware compiler in ordering mode unordered,
// run by turns, at four document sizes (factor 0.002 is ~0.1 MB, 0.2 is
// ~15 MB). It reports the median times and the speedup of the medians;
// as in the paper, 100 % is twice as fast.
func BenchmarkFigure12(b *testing.B) {
	for _, factor := range []float64{0.002, 0.01, 0.05, 0.2} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			e := newEnv(factor)
			for _, q := range xmarkq.All() {
				b.Run(q.Name, func(b *testing.B) {
					pb, pu := prepare(b, q.Text, baseline()), prepare(b, q.Text, unordered(opt.AllOptions()))
					var ordered, unord []float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, o, ok := timed(b, e, pb)
						if !ok {
							return
						}
						_, u, ok := timed(b, e, pu)
						if !ok {
							return
						}
						ordered, unord = append(ordered, o), append(unord, u)
					}
					o, u := median(ordered), median(unord)
					b.ReportMetric(o, "ordered-ms")
					b.ReportMetric(u, "unordered-ms")
					b.ReportMetric((o/u-1)*100, "speedup-%")
				})
			}
		})
	}
}

// BenchmarkTable2 times Table 2: Q11 at factor 0.05 under the baseline
// and with order indifference on in the prolog's (ordered) mode — the
// Q11 win needs no unordered declaration (Rule FN:COUNT). It reports the
// share of the baseline's operator time spent in joins and ρ (the paper:
// ~90 %) and the time saved (the paper: 45 %). Both runs collect their
// operator records, so both pay for them.
func BenchmarkTable2(b *testing.B) {
	b.Run("Q11", func(b *testing.B) {
		e := newEnv(0.05)
		base, indiff := baseline(), bounded(core.DefaultConfig())
		base.Collect, indiff.Collect = true, true
		q := xmarkq.Get(11).Text
		pb, pi := prepare(b, q, base), prepare(b, q, indiff)
		var ordered, indifferent, share []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, o, ok := timed(b, e, pb)
			if !ok {
				return
			}
			_, d, ok := timed(b, e, pi)
			if !ok {
				return
			}
			join, reorder, _, all := table2(res.Stats, func(op obs.OpStats) int64 { return int64(max(op.Wall, op.Busy)) })
			ordered, indifferent = append(ordered, o), append(indifferent, d)
			share = append(share, 100*float64(join+reorder)/float64(all))
		}
		o, d := median(ordered), median(indifferent)
		b.ReportMetric(o, "ordered-ms")
		b.ReportMetric(d, "indifference-ms")
		b.ReportMetric(median(share), "join+reorder-%")
		b.ReportMetric((1-d/o)*100, "saved-%")
	})
}

// BenchmarkAblation times each ablation configuration at factor 0.02.
func BenchmarkAblation(b *testing.B) {
	e := newEnv(0.02)
	for _, id := range ablationQueries {
		q := xmarkq.Get(id)
		b.Run(q.Name, func(b *testing.B) {
			for _, c := range ablation {
				b.Run(c.name, func(b *testing.B) {
					p := prepare(b, q.Text, c.cfg)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, ok := timed(b, e, p); !ok {
							return
						}
					}
				})
			}
		})
	}
}
