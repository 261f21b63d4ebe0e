package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/vm"
	"repro/internal/xdm"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// The traced run measures each layer from outside: it calls the layer's
// public entry point itself, with a span around the call, and reads the
// counters the layer already exports. Nothing below instruments the
// program under test.

// memDoc is a document in the layers' own types, for calls below the
// public API.
type memDoc struct {
	frag  *xmltree.Fragment
	store *xmltree.Store
	docs  map[string][]uint32
}

func newMemDoc(frags map[string]*xmltree.Fragment) *memDoc {
	d := &memDoc{store: xmltree.NewStore(), docs: map[string][]uint32{}}
	for uri, f := range frags {
		d.docs[uri] = []uint32{d.store.Add(f)}
		d.frag = f
	}
	return d
}

// parseDoc parses the XML three times and returns the document with the
// median parse time.
func parseDoc(xml []byte) (*memDoc, time.Duration, error) {
	var times []float64
	var frag *xmltree.Fragment
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f, err := xmltree.Parse(bytes.NewReader(xml), docName, xmltree.DefaultLimits())
		if err != nil {
			return nil, 0, fmt.Errorf("xmltree.Parse: %w", err)
		}
		times = append(times, ms(time.Since(t0)))
		frag = f
	}
	return newMemDoc(map[string]*xmltree.Fragment{docName: frag}), time.Duration(median(times) * float64(time.Millisecond)), nil
}

// tracedPasses runs passes with a span at every layer boundary crossed.
type tracedPasses struct {
	tr   *tracer
	doc  *memDoc
	reqs [modes][]request
	refs references
	// progs holds programs prepared once (plan-reusing workloads); nil
	// sends every operation through the static pipeline.
	progs [modes][]*vm.Program
	// probe is the per-poll storage health probe (stored); may be nil.
	probe func() error
}

// prepare crosses the static pipeline stage by stage, as core.Prepare
// does with the default configuration.
func (p *tracedPasses) prepare(text string, parent, req int) (*vm.Program, error) {
	tr := p.tr
	s := tr.begin("xquery.parse", parent, req, 0)
	mod, err := xquery.Parse(text)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("norm.normalize", parent, req, 0)
	nm, err := norm.Normalize(mod, norm.Options{InsertUnordered: true})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("compile.compile", parent, req, 0)
	plan, err := compile.Compile(nm, compile.Options{Indifference: true})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("opt.optimize", parent, req, 0)
	root := opt.Optimize(plan.Root, plan.Builder, opt.AllOptions())
	tr.end(s)
	s = tr.begin("vm.flatten", parent, req, 0)
	prog := vm.Compile(root)
	tr.end(s)
	return prog, nil
}

// prepareAll fills progs for a plan-reusing workload (untraced).
func (p *tracedPasses) prepareAll() error {
	saved := p.tr
	p.tr = nil
	defer func() { p.tr = saved }()
	for mode := range p.reqs {
		p.progs[mode] = make([]*vm.Program, len(p.reqs[mode]))
		for i, rq := range p.reqs[mode] {
			prog, err := p.prepare(rq.Text, -1, 0)
			if err != nil {
				return fmt.Errorf("prepare Q%d: %w", rq.Query, err)
			}
			p.progs[mode][i] = prog
		}
	}
	return nil
}

// pass runs one traced pass under parent and returns its duration and
// how many operations failed.
func (p *tracedPasses) pass(mode, parent, passID int) (time.Duration, int) {
	tr := p.tr
	failed := 0
	t0 := time.Now()
	sp := tr.begin("pass", parent, passID, 0)
	for i, rq := range p.reqs[mode] {
		so := tr.begin("op", sp, passID, 0)
		out, err := p.op(mode, i, so, passID)
		tr.end(so)
		if err != nil || !p.refs.ok(rq.Text, []byte(out)) {
			failed++
		}
	}
	tr.end(sp)
	return time.Since(t0), failed
}

func (p *tracedPasses) op(mode, i, parent, req int) (string, error) {
	tr := p.tr
	var prog *vm.Program
	if p.progs[mode] != nil {
		prog = p.progs[mode][i]
	} else {
		var err error
		if prog, err = p.prepare(p.reqs[mode][i].Text, parent, req); err != nil {
			return "", err
		}
	}
	s := tr.begin("vm.run", parent, req, 0)
	res, err := vm.Run(prog, p.doc.store, p.doc.docs, vm.Options{Options: engine.Options{StoreProbe: p.probe}})
	tr.end(s)
	if err != nil {
		return "", err
	}
	s = tr.begin("xmltree.serialize", parent, req, 0)
	out, err := res.SerializeXML()
	tr.end(s)
	return out, err
}

// spanLayers maps span names to the per-layer metric their self time
// feeds, per pass.
var spanLayers = map[string]string{
	"xquery.parse":      "xquery.parse_ms",
	"norm.normalize":    "norm.normalize_ms",
	"compile.compile":   "compile.compile_ms",
	"opt.optimize":      "opt.optimize_ms",
	"vm.flatten":        "vm.flatten_ms",
	"vm.run":            "vm.run_ms",
	"xmltree.serialize": "xmltree.serialize_ms",
}

// setSpanLayers turns the spans of traced passes into per-pass layer
// metrics: each layer's self time is taken pass by pass (spans of one
// pass share Req) and the median pass is reported. It returns the share
// of the traced pass time that the layers' self times cover.
func (r *report) setSpanLayers(spans []span) float64 {
	byPass := map[int][]span{}
	for _, s := range spans {
		byPass[s.Req] = append(byPass[s.Req], s)
	}
	perPass := map[string][]float64{}
	var covered, whole time.Duration
	for _, group := range byPass {
		if totalTime(group, "pass") == 0 {
			continue
		}
		self := selfTimes(group)
		for name := range spanLayers {
			perPass[name] = append(perPass[name], ms(self[name]))
			covered += self[name]
		}
		whole += totalTime(group, "pass")
	}
	for name, metric := range spanLayers {
		r.perLayer[metric] = median(perPass[name])
	}
	return ratio(float64(covered), float64(whole))
}

// variant is the workload's requests prepared under one pipeline
// configuration, for executor comparisons by the same method.
type variant struct {
	plans [modes][]*core.Prepared
	pairs []float64 // ms per ordered+unordered pair
	stats []*obs.RunStats
}

func newVariant(cfg core.Config, reqs [modes][]request) (*variant, error) {
	v := &variant{}
	for mode := range reqs {
		for _, rq := range reqs[mode] {
			p, err := core.Prepare(rq.Text, cfg)
			if err != nil {
				return nil, fmt.Errorf("prepare Q%d: %w", rq.Query, err)
			}
			v.plans[mode] = append(v.plans[mode], p)
		}
	}
	return v, nil
}

// pair times one ordered and one unordered pass (execute + serialize).
// The first pair's results are checked.
func (v *variant) pair(doc *memDoc, reqs [modes][]request, refs references) (failed int) {
	check := len(v.pairs) == 0
	t0 := time.Now()
	for mode := range v.plans {
		for i, p := range v.plans[mode] {
			res, err := p.Run(doc.store, doc.docs)
			var out string
			if err == nil {
				out, err = res.SerializeXML()
			}
			if err != nil || (check && !refs.ok(reqs[mode][i].Text, []byte(out))) {
				failed++
				continue
			}
			if res.Stats != nil {
				v.stats = append(v.stats, res.Stats)
			}
		}
	}
	v.pairs = append(v.pairs, ms(time.Since(t0)))
	return failed
}

// passMS is the variant's median time per pass.
func (v *variant) passMS() float64 { return median(v.pairs) / modes }

// executorProbes compares executors and configurations on the workload's
// own plans, round-robin so drift hits all alike.
func executorProbes(doc *memDoc, reqs [modes][]request, refs references, budget time.Duration, rep *report) error {
	walked, baseline, collect, par := core.DefaultConfig(), core.BaselineConfig(), core.DefaultConfig(), core.DefaultConfig()
	walked.Compiled = false
	baseline.Compiled = true
	collect.Collect = true
	par.Parallelism = runtime.GOMAXPROCS(0)
	var vs []*variant
	for _, cfg := range []core.Config{core.DefaultConfig(), walked, baseline, collect, par} {
		v, err := newVariant(cfg, reqs)
		if err != nil {
			return err
		}
		vs = append(vs, v)
	}
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		for _, v := range vs {
			rep.failed += v.pair(doc, reqs, refs)
		}
	}
	def, walk, base, coll, parl := vs[0], vs[1], vs[2], vs[3], vs[4]
	rep.perLayer["engine.walk_ms"] = walk.passMS()
	rep.perLayer["vm.speedup_vs_walk"] = ratio(walk.passMS(), def.passMS())
	rep.perLayer["opt.indifference_speedup"] = ratio(base.passMS(), def.passMS())
	rep.perLayer["obs.collect_tax_ratio"] = ratio(coll.passMS(), def.passMS())
	rep.perLayer["parallel.run_ms"] = parl.passMS()
	rep.perLayer["parallel.speedup"] = ratio(def.passMS(), parl.passMS())

	// Table 2 for the workload: operator time by class.
	class := map[string]float64{}
	var total, cells float64
	for _, st := range coll.stats {
		for _, op := range st.Ops {
			class[opClass(op.Kind)] += float64(op.Wall)
			total += float64(op.Wall)
			cells += float64(op.Cells)
		}
	}
	for _, c := range []string{"step", "join", "rownum", "rowid", "distinct", "construct", "other"} {
		rep.perLayer["engine."+c+"_share"] = ratio(class[c], total)
	}
	rep.perLayer["engine.cells_per_pass"] = ratio(cells, float64(len(coll.pairs)))
	return nil
}

// opClass groups operator kinds (algebra.OpKind.String) as Table 2 does.
func opClass(kind string) string {
	switch kind {
	case "step", "rownum", "rowid", "distinct":
		return kind
	case "join", "semijoin", "difference", "cross":
		return "join"
	case "element", "attribute":
		return "construct"
	}
	return "other"
}

// planCounts sums plan sizes over the workload's requests. The counts
// are properties of the queries and the compiler, exact on every run.
func planCounts(reqs [modes][]request, rep *report) error {
	for mode := range reqs {
		for _, rq := range reqs[mode] {
			p, err := core.Prepare(rq.Text, core.DefaultConfig())
			if err != nil {
				return fmt.Errorf("prepare Q%d: %w", rq.Query, err)
			}
			rep.perLayer["compile.plan_ops"] += float64(p.StatsBefore.Operators)
			rep.perLayer["compile.rownums"] += float64(p.StatsBefore.RowNums)
			rep.perLayer["opt.plan_ops"] += float64(p.StatsAfter.Operators)
			rep.perLayer["opt.rownums"] += float64(p.StatsAfter.RowNums)
			rep.perLayer["opt.rowids"] += float64(p.StatsAfter.RowIDs)
			rep.perLayer["vm.instrs"] += float64(p.Program.NumInstrs())
			// MarkParallel annotates the plan; p is not executed afterwards.
			rep.perLayer["opt.par_regions"] += float64(opt.MarkParallel(p.Plan.Root))
		}
	}
	return nil
}

// preparePass calls core.Prepare once per request of a mode, each call in
// a root span, and returns the pass's total. Interleaved with the traced
// passes, it prices the static pipeline as one call, glue included.
func (p *tracedPasses) preparePass(mode, passID int) (float64, error) {
	var total time.Duration
	for _, rq := range p.reqs[mode] {
		s := p.tr.begin("core.prepare", -1, passID, 0)
		t0 := time.Now()
		_, err := core.Prepare(rq.Text, core.DefaultConfig())
		total += time.Since(t0)
		p.tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("core.Prepare Q%d: %w", rq.Query, err)
		}
	}
	return ms(total), nil
}

// medianOver samples fn until the budget is used, at least five times,
// and returns the median.
func medianOver(budget time.Duration, fn func() float64) float64 {
	var xs []float64
	start := time.Now()
	for n := 0; n < 5 || time.Since(start) < budget; n++ {
		xs = append(xs, fn())
	}
	return median(xs)
}

// staircaseProbe times the descendant staircase scan over the whole
// document, in ns per node.
func staircaseProbe(frag *xmltree.Fragment, budget time.Duration) float64 {
	return medianOver(budget, func() float64 {
		t0 := time.Now()
		engine.AxisScan(frag, []int32{frag.Root()}, xquery.AxisDescendant, xquery.NodeTest{Kind: xquery.TestWild})
		return float64(time.Since(t0)) / float64(frag.Len())
	})
}

// joinProbe times building a hash index on a seeded int64 key column and
// probing it with as many seeded keys, in ns per probed row.
func joinProbe(seed uint64, budget time.Duration) float64 {
	const rows = 1 << 16
	r := rand.New(rand.NewSource(int64(seed)))
	right, left := make([]int64, rows), make([]int64, rows)
	for i, k := range r.Perm(rows) {
		right[i] = int64(k)
		left[i] = r.Int63n(rows)
	}
	rk, lk := xdm.IntColumn(right), xdm.IntColumn(left)
	return medianOver(budget, func() float64 {
		t0 := time.Now()
		engine.BuildJoinIndex(rk).Probe(lk, 0, rows, nil, nil)
		return float64(time.Since(t0)) / rows
	})
}

// memCounters snapshots the allocator, collector and buffer-pool
// counters; setMemLayers reports their deltas per pass.
type memCounters struct {
	bytes, objects, pauseNS uint64
	poolHits, poolMisses    int64
}

func readMemCounters() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h, miss := xdm.PoolStats()
	return memCounters{m.TotalAlloc, m.Mallocs, m.PauseTotalNs, h, miss}
}

func (r *report) setMemLayers(before, after memCounters, passes int) {
	n := float64(passes)
	r.perLayer["xdm.alloc_mb_per_pass"] = float64(after.bytes-before.bytes) / (1 << 20) / n
	r.perLayer["xdm.allocs_per_pass"] = float64(after.objects-before.objects) / n
	r.perLayer["xdm.gc_pause_ms_per_pass"] = float64(after.pauseNS-before.pauseNS) / 1e6 / n
	hits, misses := float64(after.poolHits-before.poolHits), float64(after.poolMisses-before.poolMisses)
	r.perLayer["xdm.pool_hit_ratio"] = ratio(hits, hits+misses)
}

// traceDocument fills the per-layer metrics every traced run starts
// with — the oracle check, the document's generation, parse and size, the
// plan counts of the requests — and returns the parsed document.
func (su *libSetup) traceDocument(reqs [modes][]request, rep *report) (*memDoc, error) {
	rep.perLayer["interp.verify_s"] = su.verify.Seconds()
	rep.perLayer["xmark.generate_ms"] = median(su.gens)
	doc, parse, err := parseDoc(su.xml)
	if err != nil {
		return nil, err
	}
	rep.perLayer["xmltree.parse_mb_s"] = float64(len(su.xml)) / (1 << 20) / parse.Seconds()
	rep.perLayer["xmltree.nodes"] = float64(doc.frag.Len())
	return doc, planCounts(reqs, rep)
}

// traceLibrary is the traced run of an in-memory library workload.
func traceLibrary(spec libSpec, c runConfig, su *libSetup, loop *pairLoop, rep *report) error {
	doc, err := su.traceDocument(su.state.reqs, rep)
	if err != nil {
		return err
	}

	// Untraced passes through the public API: the base of the tracing
	// overhead, and the allocation figures.
	before := readMemCounters()
	plain, err := loop.run(c.share(0.15))
	if err != nil {
		return err
	}
	rep.setMemLayers(before, readMemCounters(), len(plain.passes()))
	rep.attempted, rep.failed = rep.attempted+plain.attempted, rep.failed+plain.failed
	rep.perLayer["xmltree.result_bytes_per_pass"] = float64(plain.outBytes)

	// Traced passes.
	tp := &tracedPasses{tr: newTracer(), doc: doc, reqs: su.state.reqs, refs: su.refs}
	if spec.reuse {
		if err := tp.prepareAll(); err != nil {
			return err
		}
	}
	var tracedMS, prepareMS []float64
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < c.share(0.40); pair++ {
		for mode := range tp.reqs {
			d, failed := tp.pass(mode, -1, len(tracedMS))
			tracedMS = append(tracedMS, ms(d))
			rep.attempted += len(tp.reqs[mode])
			rep.failed += failed
			if !spec.reuse {
				// Its spans carry a Req no traced pass uses.
				prep, err := tp.preparePass(mode, -len(tracedMS))
				if err != nil {
					return err
				}
				prepareMS = append(prepareMS, prep)
			}
		}
	}
	spans := tp.tr.snapshot()
	coverage := rep.setSpanLayers(spans)
	rep.perLayer["obs.trace_overhead_ratio"] = ratio(median(tracedMS), median(plain.passes()))
	rep.note("layer self times cover %.1f%% of the traced pass time (%d traced passes, %d spans)", 100*coverage, len(tracedMS), len(spans))
	if !spec.reuse {
		rep.perLayer["core.prepare_ms"] = median(prepareMS)
		rep.perLayer["core.glue_ms"] = rep.perLayer["core.prepare_ms"]
		for _, m := range []string{"xquery.parse_ms", "norm.normalize_ms", "compile.compile_ms", "opt.optimize_ms", "vm.flatten_ms"} {
			rep.perLayer["core.glue_ms"] -= rep.perLayer[m]
		}
	}
	if err := executorProbes(doc, su.state.reqs, su.refs, c.share(0.30), rep); err != nil {
		return err
	}
	rep.perLayer["engine.staircase_ns_per_node"] = staircaseProbe(doc.frag, c.share(0.05))
	rep.perLayer["engine.join_probe_ns_per_row"] = joinProbe(c.seed, c.share(0.05))
	return writeTrace(c, spans)
}
