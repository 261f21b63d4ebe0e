package main

// metricDef declares one metric the harness emits. BENCHMARK.json must
// declare exactly these (checked by -validate, the unit test and every
// run), so the manifest and the program cannot drift apart. README.md
// says what each one means and which end-to-end metric it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// workloadDef names one workload and why it exists; the same sentence is
// BENCHMARK.json's "why".
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"paths", "15 non-join XMark queries on an in-memory factor-0.1 document, plans reused: staircase join, rho vs #, serialization; no static pipeline, no value join"},
	{"joins", "XMark Q8-Q12 on an in-memory factor-0.005 document, plans reused: value joins and iter-to-seq reordering dominate; path kernels do little"},
	{"adhoc", "all 20 queries as text through Engine.Query at factor 0.002, no plan reuse: parse-normalize-compile-optimize-flatten is most of a pass; control for serve"},
	{"serve", "exrquyd subprocess, 2 closed-loop HTTP clients, warm plan cache, factor 0.005: HTTP edge, gates, cache lookup and serialization are a visible share"},
	{"stored", "the paths queries over a 3-shard 2-replica mmap store under a quarter-size paging budget, attach-pass-detach cycles: mount, paging and probe tax"},
}

// End-to-end metrics: what a caller of the library or the daemon sees.
// Every workload reports every one, from the untraced run.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "load_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ordered_pass_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "unordered_pass_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// Per-layer metrics: measured from outside each layer by the traced run.
// A layer the workload never enters reports 0 (the static pipeline on a
// plan-reusing workload, the store on an in-memory one).
var perLayerDefs = []metricDef{
	// Static pipeline, per pass, from the span tree.
	{Name: "xquery.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "norm.normalize_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.flatten_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "core.glue_ms", Unit: "ms", Better: "lower"},
	{Name: "compile.plan_ops", Unit: "count", Better: "lower"},
	{Name: "compile.rownums", Unit: "count", Better: "lower"},
	{Name: "opt.plan_ops", Unit: "count", Better: "lower"},
	{Name: "opt.rownums", Unit: "count", Better: "lower"},
	{Name: "opt.rowids", Unit: "count", Better: "higher"},
	{Name: "opt.par_regions", Unit: "count", Better: "higher"},
	{Name: "vm.instrs", Unit: "count", Better: "lower"},

	// Execution.
	{Name: "vm.run_ms", Unit: "ms", Better: "lower"},
	{Name: "xmltree.serialize_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.walk_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.speedup_vs_walk", Unit: "ratio", Better: "higher"},
	{Name: "opt.indifference_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.step_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.join_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.rownum_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.rowid_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.distinct_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.construct_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.other_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.cells_per_pass", Unit: "count", Better: "lower"},
	{Name: "engine.staircase_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "engine.join_probe_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "parallel.run_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "xdm.alloc_mb_per_pass", Unit: "MB", Better: "lower"},
	{Name: "xdm.allocs_per_pass", Unit: "count", Better: "lower"},
	{Name: "xdm.gc_pause_ms_per_pass", Unit: "ms", Better: "lower"},
	{Name: "xdm.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "xmltree.result_bytes_per_pass", Unit: "bytes", Better: "lower"},
	{Name: "obs.collect_tax_ratio", Unit: "ratio", Better: "lower"},

	// Documents.
	{Name: "xmark.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "xmltree.parse_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "xmltree.nodes", Unit: "count", Better: "lower"},

	// Store (stored).
	{Name: "store.write_ms", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_single_ms", Unit: "ms", Better: "lower"},
	{Name: "store.page_faults_per_cycle", Unit: "count", Better: "lower"},
	{Name: "store.evictions_per_cycle", Unit: "count", Better: "lower"},
	{Name: "store.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "store.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "store.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "store.failover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.scrub_mb_s", Unit: "MB/s", Better: "higher"},

	// Serving (serve).
	{Name: "server.rps", Unit: "1/s", Better: "higher"},
	{Name: "server.engine_share", Unit: "ratio", Better: "higher"},
	{Name: "server.http_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.put_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "governor.admit_us", Unit: "us", Better: "lower"},
	{Name: "governor.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "governor.shed", Unit: "count", Better: "lower"},
	{Name: "resilience.gates_tax_us", Unit: "us", Better: "lower"},
	{Name: "client.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.gen_lag_p99_ms", Unit: "ms", Better: "lower"},

	// Harness.
	{Name: "interp.verify_s", Unit: "s", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

func defNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}
