package core

import (
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery"
)

// TestDifferentialTypedVsBoxed pins the typed column layer to the boxed
// []Item storage model bit for bit: every corpus query must serialize
// byte-identically whether columns are stored as flat typed slices (the
// default) or forced to boxed cells via xdm.ForceBoxed. This holds even
// under ordering mode unordered — both storage models run the same plan
// through the same kernels, so the realized arbitrary order must agree
// too; any divergence means a typed kernel changed semantics, not just
// representation.
func TestDifferentialTypedVsBoxed(t *testing.T) {
	store, docs := buildStore(t)
	unordered := xquery.Unordered
	ucfg := DefaultConfig()
	ucfg.ForceOrdering = &unordered
	pcfg := DefaultConfig()
	pcfg.Parallelism = 4 // the inert facade, see TestDifferentialParallel
	configs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", BaselineConfig()},
		{"indifference", DefaultConfig()},
		{"unordered", ucfg},
		{"parallel", pcfg},
	}
	for _, cc := range configs {
		for _, tc := range diffCases {
			t.Run(cc.name+"/"+tc.name, func(t *testing.T) {
				typed, _ := runPipeline(t, store, docs, tc.query, cc.cfg)
				xdm.ForceBoxed = true
				defer func() { xdm.ForceBoxed = false }()
				boxed, _ := runPipeline(t, store, docs, tc.query, cc.cfg)
				if typed != boxed {
					t.Errorf("typed and boxed results differ:\n typed %q\n boxed %q", typed, boxed)
				}
			})
		}
	}
}
