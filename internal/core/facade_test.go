package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/xmarkq"
	"repro/internal/xquery"
)

// TestSerialPlansUnmarked pins the two inert facades the benchmark still
// names (pinned by benchmark/; they go with ROADMAP 1(f)): over every
// XMark query in both ordering modes, opt.MarkParallel marks nothing and
// leaves Explain byte-identical, and a Config with Parallelism set
// prepares the same plan and serialises the same bytes as the default.
func TestSerialPlansUnmarked(t *testing.T) {
	store, docs := xmarkStore(0.002)
	unordered := xquery.Unordered
	ucfg := core.DefaultConfig()
	ucfg.ForceOrdering = &unordered
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"ordered", core.DefaultConfig()},
		{"unordered", ucfg},
	}
	run := func(t *testing.T, p *core.Prepared) string {
		t.Helper()
		res, err := p.Run(store, docs)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		xml, err := res.SerializeXML()
		if err != nil {
			t.Fatalf("serialize: %v", err)
		}
		return xml
	}
	for _, m := range modes {
		for _, q := range xmarkq.All() {
			p, err := core.Prepare(q.Text, m.cfg)
			if err != nil {
				t.Fatalf("%s/%s: prepare: %v", q.Name, m.name, err)
			}
			want := p.Explain()
			if n := opt.MarkParallel(p.Plan.Root); n != 0 {
				t.Errorf("%s/%s: MarkParallel marked %d nodes, want 0", q.Name, m.name, n)
			}
			if got := p.Explain(); got != want {
				t.Errorf("%s/%s: MarkParallel changed Explain\n-- got --\n%s-- want --\n%s", q.Name, m.name, got, want)
			}
			pcfg := m.cfg
			pcfg.Parallelism = 4
			pp, err := core.Prepare(q.Text, pcfg)
			if err != nil {
				t.Fatalf("%s/%s: prepare with Parallelism: %v", q.Name, m.name, err)
			}
			if got := pp.Explain(); got != want {
				t.Errorf("%s/%s: Parallelism = 4 changed Explain\n-- got --\n%s-- want --\n%s", q.Name, m.name, got, want)
			}
			if got, want := run(t, pp), run(t, p); got != want {
				t.Errorf("%s/%s: Parallelism = 4 changed the result\n got %.200q\nwant %.200q", q.Name, m.name, got, want)
			}
		}
	}
}
