// The Compiled differential gate: a plan flattened once at Prepare
// (Config.Compiled — the Program a plan cache shares across executions,
// run on pooled frames) must produce byte-identical serialized results to
// the same plan flattened afresh at each Run ("walked", a name the test
// IDs keep from the executor that setting used to select), across the
// whole XMark corpus, every ordering mode, serial and morsel-pool
// execution, typed and boxed column storage. Both go through the one
// executor loop in the same deterministic order (see algebra.Nodes), so
// equality is exact — no bag comparison, no exceptions.
package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xdm"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// xmarkStore generates an XMark instance at factor as auction.xml.
func xmarkStore(factor float64) (*xmltree.Store, map[string][]uint32) {
	store := xmltree.NewStore()
	return store, map[string][]uint32{"auction.xml": {store.Add(xmark.Generate(xmark.Config{Factor: factor}))}}
}

func TestDifferentialCompiledVsWalked(t *testing.T) {
	factor := 0.01
	if testing.Short() {
		factor = 0.002
	}
	store, docs := xmarkStore(factor)

	unordered := xquery.Unordered
	ucfg := core.DefaultConfig()
	ucfg.ForceOrdering = &unordered
	pcfg := core.DefaultConfig()
	pcfg.ForceOrdering = &unordered
	pcfg.Parallelism = 4
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"ordered", core.DefaultConfig()},
		{"unordered", ucfg},
		{"parallel", pcfg},
	}

	run := func(q xmarkq.Query, cfg core.Config, compiled bool) (string, error) {
		cfg.Compiled = compiled
		p, err := core.Prepare(q.Text, cfg)
		if err != nil {
			return "", fmt.Errorf("prepare: %w", err)
		}
		if compiled != (p.Program != nil) {
			return "", fmt.Errorf("Compiled=%v but Program=%v", compiled, p.Program != nil)
		}
		res, err := p.Run(store, docs)
		if err == nil && compiled {
			// The property under test is reuse: serialize the second
			// execution of the shared Program, which runs on the frame the
			// first one returned to the pool.
			res, err = p.Run(store, docs)
		}
		if err != nil {
			return "", fmt.Errorf("run: %w", err)
		}
		return res.SerializeXML()
	}

	defer func(prev bool) { xdm.ForceBoxed = prev }(xdm.ForceBoxed)
	for _, q := range xmarkq.All() {
		for _, m := range modes {
			for _, typed := range []bool{true, false} {
				cols := "typed"
				if !typed {
					cols = "boxed"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", q.Name, m.name, cols), func(t *testing.T) {
					xdm.ForceBoxed = !typed
					defer func() { xdm.ForceBoxed = false }()
					walked, err := run(q, m.cfg, false)
					if err != nil {
						t.Fatalf("walked: %v", err)
					}
					compiled, err := run(q, m.cfg, true)
					if err != nil {
						t.Fatalf("compiled: %v", err)
					}
					if walked != compiled {
						t.Errorf("compiled result differs from walked\nwalked:   %.200q\ncompiled: %.200q", walked, compiled)
					}
				})
			}
		}
	}
}

// TestCompiledStatsKeyedByPlanNode pins the observability contract of
// the executor: an EXPLAIN ANALYZE run of a flattened program produces
// per-operator statistics keyed by the same plan-node IDs the annotated
// plan prints, so exrquy -analyze and ?analyze=1 join runs back to #id
// lines with no translation layer.
func TestCompiledStatsKeyedByPlanNode(t *testing.T) {
	store, docs := xmarkStore(0.002)
	cfg := core.DefaultConfig()
	q := xmarkq.Get(1)
	p, err := core.Prepare(q.Text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Program == nil {
		t.Fatal("DefaultConfig did not compile a program")
	}
	res, annotated, err := p.Analyze(t.Context(), store, docs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || len(res.Stats.Ops) == 0 {
		t.Fatal("compiled analyze run produced no per-operator stats")
	}
	for _, op := range res.Stats.Ops {
		if op.Calls == 0 {
			t.Errorf("op #%d (%s) recorded no kernel calls", op.Node, op.Kind)
		}
		if !strings.Contains(annotated, fmt.Sprintf("#%d ", op.Node)) {
			t.Errorf("op stats node %d not present in annotated plan:\n%s", op.Node, annotated)
		}
	}
}
