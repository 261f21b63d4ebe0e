package core_test

import (
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/xmarkq"
	"repro/internal/xquery"
)

// TestValueJoinMintsInnerLoop: the inner for clause of XMark Q8–Q12 is
// minted from its value join — no iteration-mapping join relates an
// |outer| × |inner| pair space to the join keys and no semijoin on the
// θ-join's (aiter, biter) pairs filters it, in either ordering mode — and
// at run time the for binding numbers about as many rows as the θ-join
// lets through.
func TestValueJoinMintsInnerLoop(t *testing.T) {
	un := xquery.Unordered
	unordered := core.Config{Indifference: true, ForceOrdering: &un, Opt: opt.AllOptions()}
	for _, q := range xmarkq.All()[7:12] {
		for _, cfg := range []core.Config{core.DefaultConfig(), unordered, core.BaselineConfig()} {
			p, err := core.Prepare(q.Text, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range algebra.Nodes(p.Plan.Root) {
				if n.Origin == "join (iteration mapping)" ||
					n.Kind == algebra.OpSemi && slices.Equal(n.Cols, []string{"aiter", "biter"}) {
					t.Errorf("%s: the pair space is still built and filtered:\n%s", q.Name, p.Explain())
					break
				}
			}
		}
	}

	cfg := core.BaselineConfig()
	cfg.Collect = true
	store, docs := xmarkStore(0.005)
	p, err := core.Prepare(xmarkq.Get(11).Text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.Run(store, docs)
	if err != nil {
		t.Fatal(err)
	}
	var pairs, bound int64
	for _, op := range run.Stats.Ops {
		switch {
		case op.Kind == "join" && op.Origin == "join (general comparison)":
			pairs += op.RowsOut
		case op.Origin == "seq->iter order (3)" || op.Origin == "for binding (#)":
			bound = max(bound, op.RowsOut)
		}
	}
	if pairs == 0 || bound > 2*pairs {
		t.Errorf("Q11: the for binding numbers %d rows against %d qualifying pairs, want at most 2×", bound, pairs)
	}
	t.Logf("Q11 at factor 0.005: %d qualifying pairs, largest for binding %d rows", pairs, bound)
}
