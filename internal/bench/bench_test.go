package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xmarkq"
)

// TestTable2ProfileShape checks the paper's structural claim about Q11 —
// join work and the reordering around it dominate, path steps are
// marginal next to them — on cells materialized per operator class, which
// is the same on every host. Time shares of the same classes are
// benchmark/'s engine.*_share metrics. Since the inner loop is minted from
// the value join, both classes run over the qualifying pairs only, so
// steps are a visible share of the (much smaller) total.
func TestTable2ProfileShape(t *testing.T) {
	var sb strings.Builder
	res, err := Table2(0.005, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.TotalMS <= 0 {
		t.Fatal("empty profile")
	}
	if !strings.Contains(sb.String(), "paper: 45%") {
		t.Error("report text missing the paper reference")
	}

	cfg := core.BaselineConfig()
	cfg.Collect = true
	run, _, _, err := Run(NewEnv(0.005), xmarkq.Get(11).Text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var join, reorder, iterToSeq, step, materialized int64
	for _, op := range run.Stats.Ops {
		switch op.Kind {
		case "project":
			continue // π aliases its input columns: bookkeeping, not work
		case "join", "cross", "semijoin":
			join += op.Cells
		case "rownum":
			reorder += op.Cells
			if strings.HasPrefix(op.Origin, "iter->seq order") {
				iterToSeq += op.Cells
			}
		case "step":
			step += op.Cells
		}
		materialized += op.Cells
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
}

func TestFigure12SmallSweep(t *testing.T) {
	rows := Figure12([]float64{0.002}, 30*time.Second, 1, nil)
	if len(rows) != 20 {
		t.Fatalf("rows: %d", len(rows))
	}
	byName := map[string]Figure12Row{}
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s failed: %s", r.Query, r.Err)
		}
		byName[r.Query] = r
	}
	// Q6/Q7 are the paper's outliers; they must show large speedups at
	// any size.
	for _, q := range []string{"Q6", "Q7"} {
		if byName[q].SpeedupPct < 300 {
			t.Errorf("%s speedup %.0f%%, expected an outlier (paper: up to 10,000%%)", q, byName[q].SpeedupPct)
		}
	}
}

func TestPlanSizesAllQueries(t *testing.T) {
	rows, err := PlanSizes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.OrderedSorts == 0 && r.Query != "Q20" {
			// Every FLWOR query realizes some order interaction under
			// ordered mode. (Q20 is a single constructor over counts.)
			t.Errorf("%s: ordered plan has no ρ?", r.Query)
		}
		if r.OptimizedOps > r.UnorderedOps {
			t.Errorf("%s: optimization grew the plan %d -> %d", r.Query, r.UnorderedOps, r.OptimizedOps)
		}
		if r.OptimizedSorts > r.UnorderedSorts {
			t.Errorf("%s: optimization added sorts", r.Query)
		}
	}
	// The Figure 6 claim for Q6. The canonical XMark text uses //site
	// (descendant-or-self + child = two extra steps over the paper's
	// /site rendering, which TestFigure6aOrderedPlan pins at exactly 5).
	q6 := rows[5]
	if q6.OrderedSorts != 7 {
		t.Errorf("Q6 ordered sorts = %d, want 7 (Figure 6a + //site)", q6.OrderedSorts)
	}
	if q6.OptimizedSorts != 0 {
		t.Errorf("Q6 optimized sorts = %d, want 0 (§7)", q6.OptimizedSorts)
	}
}

func TestCutoffReported(t *testing.T) {
	env := NewEnv(0.005)
	cfg := baselineCfg(time.Nanosecond)
	_, _, timedOut, err := Run(env, "count(doc(\"auction.xml\")//keyword)", cfg)
	if err != nil {
		t.Fatalf("cutoff should not be an error: %v", err)
	}
	if !timedOut {
		t.Error("nanosecond cutoff not reported")
	}
}

func TestAblationRuns(t *testing.T) {
	rows, err := Ablation(0.002, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no ablation rows")
	}
	// Step merging must be the decisive rewrite for Q6.
	var none, merge float64
	for _, r := range rows {
		if r.Query == "Q6" && r.Config == "none" {
			none = r.MS
		}
		if r.Query == "Q6" && r.Config == "analysis+merge" {
			merge = r.MS
		}
	}
	if none == 0 || merge == 0 || merge > none/2 {
		t.Errorf("Q6 ablation: none=%.2fms, analysis+merge=%.2fms", none, merge)
	}
}
