package exrquy

// End-to-end allocation regression bound: XMark Q1 under the unordered
// configuration at factor 0.01 measures ~3.0k allocs per run with the
// typed column layer and ~4.6k with boxed []Item storage, so the bound
// of 4.0k trips on a regression back to per-row boxing while leaving
// ~30% headroom for incidental churn.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// allocEnv is the factor-0.01 XMark instance the allocation bounds were
// calibrated on, generated once per test binary.
type allocEnv struct {
	Store *xmltree.Store
	Docs  map[string][]uint32
}

var benv = sync.OnceValue(func() allocEnv {
	store := xmltree.NewStore()
	id := store.Add(xmark.Generate(xmark.Config{Factor: 0.01}))
	return allocEnv{Store: store, Docs: map[string][]uint32{"auction.xml": {id}}}
})

func unorderedCfg() core.Config {
	u := xquery.Unordered
	cfg := core.DefaultConfig()
	cfg.ForceOrdering = &u
	return cfg
}

func TestAllocXMarkQ1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation bound needs the factor-0.01 instance")
	}
	env := benv()
	p, err := core.Prepare(xmarkq.Get(1).Text, unorderedCfg())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := p.Run(env.Store, env.Docs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: buffer pools, GC heap target
	avg := testing.AllocsPerRun(5, run)
	if avg > 4000 {
		t.Errorf("XMark Q1 end-to-end: %.0f allocs/run, want <= 4000 (typed columns: ~3.0k, boxed: ~4.6k)", avg)
	}
}

// TestAllocCompiledNotWorseThanWalked pins what flattening once buys: a
// run of a program flattened at Prepare (Config.Compiled, pooled frames)
// must allocate no more than a run that flattens the same plan first
// ("walked", a name kept from the executor it replaced). The program and
// its release lists are exactly what the per-run flatten allocates, so
// compiled should sit strictly below; the bound tolerates equality plus
// 2% for pool-reuse jitter in AllocsPerRun sampling.
func TestAllocCompiledNotWorseThanWalked(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation bound needs the factor-0.01 instance")
	}
	env := benv()
	measure := func(qn int, compiled bool) float64 {
		cfg := unorderedCfg()
		cfg.Compiled = compiled
		p, err := core.Prepare(xmarkq.Get(qn).Text, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := p.Run(env.Store, env.Docs); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: buffer pools, frame pool, GC heap target
		return testing.AllocsPerRun(5, run)
	}
	for _, qn := range []int{1, 8} {
		compiled := measure(qn, true)
		walked := measure(qn, false)
		if compiled > walked*1.02 {
			t.Errorf("XMark Q%d: compiled %.0f allocs/run vs walked %.0f — a shared program must not out-allocate flattening per run", qn, compiled, walked)
		} else {
			t.Logf("XMark Q%d: compiled %.0f allocs/run, walked %.0f", qn, compiled, walked)
		}
	}
}

// TestPrepareAllocBudget guards the static pipeline without a wall
// clock: core.Prepare over all 20 XMark queries measures ~40k allocs
// with the append-built intern key and the slot-indexed column analysis.
// A builder key formatted through fmt alone costs ~82k, map-per-node
// inference on top of it ~131k, so the 60k bound trips on a slide back
// to either on any host.
func TestPrepareAllocBudget(t *testing.T) {
	avg := testing.AllocsPerRun(3, func() {
		for _, q := range xmarkq.All() {
			if _, err := core.Prepare(q.Text, core.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 60000 {
		t.Errorf("Prepare over the 20 XMark queries: %.0f allocs, want <= 60000 (measured ~40k)", avg)
	}
}

// TestAllocCollectDisabledZeroOverhead pins the observability contract:
// with Config.Collect off (the default), the per-operator records the
// executor writes into its pooled frame add no allocation to the
// execution hot path beyond the profile roll-up. The guard compares the
// same query with collection off and on: the disabled run must hit the
// tight historical count (Q1 typed: ~3.0k, measured 3046), and the
// enabled run must sit strictly above it (the copy into Result.Stats
// was live in the build, so the disabled figure is not vacuous).
func TestAllocCollectDisabledZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation bound needs the factor-0.01 instance")
	}
	env := benv()
	measure := func(collect bool) float64 {
		cfg := unorderedCfg()
		cfg.Collect = collect
		p, err := core.Prepare(xmarkq.Get(1).Text, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := p.Run(env.Store, env.Docs); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: buffer pools, GC heap target
		return testing.AllocsPerRun(5, run)
	}
	off := measure(false)
	on := measure(true)
	if off > 3200 {
		t.Errorf("Collect=false: %.0f allocs/run, want <= 3200 (historical ~3046; collection must stay off the hot path)", off)
	}
	if on <= off {
		t.Errorf("Collect=true (%.0f allocs/run) not above Collect=false (%.0f): collection machinery appears dead", on, off)
	}
}

// TestAllocNestedConstructor: a tree of directly nested constructors is
// one template operator, which builds the whole tree per loop row into one
// slab, so a chain of 12 nested elements allocates what a chain of 2
// does per execution, give or take a constant (twelve names outgrow the
// slab's inline dictionary) — not a slab, group index, union and copy per
// level.
func TestAllocNestedConstructor(t *testing.T) {
	allocs := func(depth int) float64 {
		q := "{$i}"
		for d := depth; d > 0; d-- {
			q = fmt.Sprintf("<e%d>%s</e%d>", d, q, d)
		}
		p, err := core.Prepare("for $i in 1 to 1000 return "+q, unorderedCfg())
		if err != nil {
			t.Fatal(err)
		}
		store := xmltree.NewStore()
		run := func() {
			if _, err := p.Run(store, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: buffer pools
		return testing.AllocsPerRun(5, run)
	}
	two, twelve := allocs(2), allocs(12)
	t.Logf("allocations per execution: chain of 2 %.0f, chain of 12 %.0f", two, twelve)
	if twelve > two+16 {
		t.Errorf("a chain of 12 nested constructors allocates %.0f times per execution, a chain of 2 %.0f; want the same within 16", twelve, two)
	}
}

// TestAllocPassBudget bounds a whole unordered pass with plans prepared
// once, as the benchmark's joins and paths workloads run it. The
// executor writes one record per operator into its pooled frame and
// rolls the profile up over a per-program origin table, so no string,
// map entry or collector call is made per operator evaluation: Q8–Q12 at
// factor 0.005 measure ~2.7k allocations per pass and the 15 path
// queries at factor 0.02 ~4.7k, where a per-origin map keyed by a
// per-operator "(kind)" string cost ~3.1k and ~5.7k.
func TestAllocPassBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation bound needs generated XMark instances and the pools a -race build drops from")
	}
	for _, c := range []struct {
		name   string
		factor float64
		qs     []int
		bound  float64
	}{
		{"joins", 0.005, []int{8, 9, 10, 11, 12}, 2750},
		{"paths", 0.02, []int{1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20}, 4800},
	} {
		store := xmltree.NewStore()
		docs := map[string][]uint32{"auction.xml": {store.Add(xmark.Generate(xmark.Config{Factor: c.factor}))}}
		var ps []*core.Prepared
		for _, q := range c.qs {
			p, err := core.Prepare(xmarkq.Get(q).Text, unorderedCfg())
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		pass := func() {
			for _, p := range ps {
				if _, err := p.Run(store, docs); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass() // warm-up: buffer pools, frame pools, GC heap target
		if avg := testing.AllocsPerRun(5, pass); avg > c.bound {
			t.Errorf("%s pass at factor %g: %.0f allocs, want <= %.0f", c.name, c.factor, avg, c.bound)
		} else {
			t.Logf("%s pass at factor %g: %.0f allocs", c.name, c.factor, avg)
		}
	}
}
