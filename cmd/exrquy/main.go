// Command exrquy runs XQuery expressions through the eXrQuy pipeline.
//
// Usage:
//
//	exrquy [flags] -q 'for $x in ...' doc1.xml doc2.xml
//	exrquy [flags] -f query.xq auction.xml
//	exrquy [flags] -xmark 0.01 -xq 8     (built-in XMark query 8)
//
// Documents are registered under their base file names for fn:doc().
// Use -xmark to generate and register a synthetic XMark instance as
// auction.xml instead of (or in addition to) loading files.
//
// Interrupting a running query (Ctrl-C) cancels it cooperatively and
// exits with the cutoff status. Exit codes map the error taxonomy:
//
//	0  success
//	1  dynamic/evaluation error
//	2  parse or compile error (static; position printed when known)
//	3  cutoff (timeout, memory limit) or cancellation
//	4  internal error (recovered engine panic; phase and plan printed)
//	5  overload (shed by the resource governor; retry after the printed hint)
//	6  corrupt on-disk store (bad magic, checksum mismatch, version skew)
//
// On-disk columnar stores built by xmarkgen -store (or Engine.WriteStoreReplicated)
// mount with -store DIR; a corpus sharded across several directories
// mounts as -store DIR1,DIR2,... With -store-bytes N the mounted stores
// page under a dedicated N-byte budget, so a corpus far larger than RAM
// stays queryable.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	exrquy "repro"
	"repro/internal/fault"
	"repro/internal/xmarkq"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// stdout buffers result serialization; fatal flushes it before os.Exit so
// output already produced when a query is cut off reaches the terminal
// instead of dying in the buffer.
var stdout = bufio.NewWriter(os.Stdout)

// queryName labels cutoff diagnostics: the -f file name, or "(inline)"
// for -q queries. Set right after flag parsing.
var queryName = "(inline)"

func main() {
	var (
		queryText  = flag.String("q", "", "query text")
		queryFile  = flag.String("f", "", "file containing the query")
		xmarkQ     = flag.Int("xq", 0, "run built-in XMark query N (1-20) instead of -q/-f")
		xmarkF     = flag.Float64("xmark", 0, "generate an XMark instance at this factor and register it as auction.xml")
		mode       = flag.String("ordering", "prolog", "ordering mode: prolog, ordered, unordered")
		baseline   = flag.Bool("baseline", false, "disable order indifference (the order-ignorant baseline)")
		explain    = flag.Bool("explain", false, "print the optimized plan instead of executing")
		analyze    = flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute, then print the plan annotated with measured per-operator rows and times")
		traceFile  = flag.String("trace", "", "write a chrome://tracing JSON trace of the run to this file")
		metrics    = flag.Bool("metrics", false, "print the process-wide engine metrics after execution")
		profile    = flag.Bool("profile", false, "print the per-origin execution profile")
		stats      = flag.Bool("stats", false, "print plan statistics (operators, sorts, stamps)")
		reference  = flag.Bool("reference", false, "evaluate with the reference interpreter instead of the compiled pipeline")
		timeoutSec = flag.Float64("timeout", 0, "execution cutoff in seconds (0 = none)")
		maxCells   = flag.Int64("maxcells", 0, "memory cutoff in intermediate table cells (0 = none)")
		parallelN  = flag.Int("parallel", 0, "morsel-wise parallel execution with this many workers (0 = serial, -1 = GOMAXPROCS)")
		govSlots   = flag.Int("gov-slots", 0, "resource governor: admission slots (0 = no governor)")
		govQueue   = flag.Int("gov-queue", 0, "resource governor: admission queue depth (0 = 8x slots)")
		govWaitSec = flag.Float64("gov-wait", 0, "resource governor: max seconds a query may wait queued (0 = unbounded)")
		govBytes   = flag.Int64("gov-bytes", 0, "resource governor: global memory ledger in bytes (0 = unlimited)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of query execution to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after execution) to this file")
		scrub      = flag.Bool("scrub", false, "scrub mounted stores before executing: re-verify part checksums, quarantine corrupt replicas, restore from healthy copies (usable without a query)")
		faults     = flag.String("faults", "", "TESTING ONLY: arm deterministic fault injection, e.g. seed=7,eio=11,badcrc=13,shortread=17,mmap=19,torn=23")
	)
	var storeDirs multiFlag
	flag.Var(&storeDirs, "store", "mount an on-disk columnar store directory (repeatable; comma-join directories holding shards of one corpus)")
	storeBytes := flag.Int64("store-bytes", 0, "dedicated paging budget for mounted stores, bytes (0 = charge the governor's ledger, if any)")
	flag.Parse()

	sources := 0
	for _, set := range []bool{*queryText != "", *queryFile != "", *xmarkQ != 0} {
		if set {
			sources++
		}
	}
	scrubOnly := sources == 0 && *scrub
	if sources != 1 && !scrubOnly {
		fatal(nil, "exactly one of -q, -f or -xq is required (or -scrub with -store and no query)")
	}
	query := *queryText
	if *queryFile != "" {
		queryName = *queryFile
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(nil, "read query: %v", err)
		}
		query = string(data)
	}
	if *xmarkQ != 0 {
		if *xmarkQ < 1 || *xmarkQ > 20 {
			fatal(nil, "-xq %d: XMark queries are numbered 1-20", *xmarkQ)
		}
		q := xmarkq.Get(*xmarkQ)
		queryName, query = q.Name, q.Text
	}
	defer stdout.Flush()

	opts := []exrquy.Option{exrquy.WithOrderIndifference(!*baseline)}
	switch *mode {
	case "prolog":
	case "ordered":
		opts = append(opts, exrquy.WithOrdering(exrquy.Ordered))
	case "unordered":
		opts = append(opts, exrquy.WithOrdering(exrquy.Unordered))
	default:
		fatal(nil, "unknown ordering mode %q", *mode)
	}
	if *timeoutSec > 0 {
		opts = append(opts, exrquy.WithTimeout(time.Duration(*timeoutSec*float64(time.Second))))
	}
	if *maxCells > 0 {
		opts = append(opts, exrquy.WithMemoryLimit(*maxCells))
	}
	if *parallelN != 0 {
		opts = append(opts, exrquy.WithParallelism(*parallelN))
	}
	if *storeBytes > 0 {
		opts = append(opts, exrquy.WithStoreBudget(*storeBytes))
	}
	if *govSlots > 0 || *govBytes > 0 {
		opts = append(opts, exrquy.WithGovernor(exrquy.NewGovernor(exrquy.GovernorConfig{
			MaxConcurrent: *govSlots,
			MaxQueue:      *govQueue,
			QueueTimeout:  time.Duration(*govWaitSec * float64(time.Second)),
			MaxBytes:      *govBytes,
		})))
	}
	var trace *exrquy.JSONTrace
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(nil, "trace: %v", err)
		}
		defer f.Close()
		trace = exrquy.NewJSONTrace(f)
		defer trace.Close()
		opts = append(opts, exrquy.WithTracer(trace))
	}
	eng := exrquy.New(opts...)

	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(nil, "open %s: %v", path, err)
		}
		err = eng.LoadDocument(filepath.Base(path), f)
		f.Close()
		if err != nil {
			fatal(err, "load %s: %v", path, err)
		}
	}
	if plan, err := fault.Parse(*faults); err != nil {
		fatal(nil, "%v", err)
	} else if plan != nil {
		fault.Arm(plan)
		fmt.Fprintf(os.Stderr, "exrquy: WARNING: fault injection armed (-faults %q) — chaos drills only\n", *faults)
	}
	for _, spec := range storeDirs {
		if _, err := eng.AttachStore(strings.Split(spec, ",")...); err != nil {
			fatal(err, "attach store %s: %v", spec, err)
		}
	}
	if *scrub {
		if len(storeDirs) == 0 {
			fatal(nil, "-scrub needs at least one -store mount")
		}
		for key, st := range eng.ScrubStores(0) {
			fmt.Fprintf(os.Stderr,
				"exrquy: scrubbed %s: %d parts verified, %d errors, %d quarantined, %d re-replicated\n",
				key, st.PartsVerified, st.Errors, st.Quarantined, st.Rereplicated)
		}
		if scrubOnly {
			return
		}
	}
	if *xmarkF > 0 {
		eng.LoadXMark("auction.xml", *xmarkF)
	}

	if *reference {
		res, err := eng.Reference(query)
		if err != nil {
			fatal(err, "%v", err)
		}
		printResult(res)
		return
	}

	q, err := eng.Compile(query)
	if err != nil {
		fatal(err, "%v", err)
	}
	if *stats {
		before, after := q.PlanStats()
		fmt.Fprintf(os.Stderr, "plan: %d ops, %d sorts (ρ), %d stamps (#)  ->  %d ops, %d sorts, %d stamps\n",
			before.Operators, before.Sorts, before.Stamps,
			after.Operators, after.Sorts, after.Stamps)
	}
	if *explain {
		fmt.Fprint(stdout, q.Explain())
		return
	}
	// Ctrl-C cancels the running query cooperatively instead of killing
	// the process mid-execution.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Profiling brackets execution only: compilation and document loading
	// are done, so the profile shows engine kernels, not setup.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(nil, "cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(nil, "cpuprofile: %v", err)
		}
	}
	var res *exrquy.Result
	var analyzed string
	if *analyze {
		res, analyzed, err = q.AnalyzeContext(ctx)
	} else {
		res, err = q.ExecuteContext(ctx)
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatal(nil, "memprofile: %v", ferr)
		}
		runtime.GC() // flush freed intermediates so the profile shows live data
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fatal(nil, "memprofile: %v", werr)
		}
		f.Close()
	}
	if err != nil {
		fatal(err, "%v", err)
	}
	if *analyze {
		// EXPLAIN ANALYZE prints the measured plan, not the result — the
		// query did run (the annotations are real), like PostgreSQL's.
		fmt.Fprint(stdout, analyzed)
	} else {
		printResult(res)
	}
	stdout.Flush() // results before the stderr reports below
	if *profile {
		fmt.Fprintf(os.Stderr, "\nexecution: %v\n", res.Elapsed())
		fmt.Fprintf(os.Stderr, "%-34s %12s %8s %12s\n", "origin", "time", "ops", "rows")
		for _, e := range res.Profile() {
			fmt.Fprintf(os.Stderr, "%-34s %12v %8d %12d\n", e.Origin, e.Duration.Round(time.Microsecond), e.Ops, e.Rows)
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "\nengine metrics:")
		if werr := exrquy.WriteMetrics(os.Stderr); werr != nil {
			fatal(nil, "metrics: %v", werr)
		}
	}
}

func printResult(res *exrquy.Result) {
	xml, err := res.XML()
	if err != nil {
		fatal(err, "serialize: %v", err)
	}
	fmt.Fprintln(stdout, xml)
}

// exitCode maps the error taxonomy to distinct exit statuses.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 1
	case errors.Is(err, exrquy.ErrParse), errors.Is(err, exrquy.ErrCompile):
		return 2
	case errors.Is(err, exrquy.ErrOverload):
		return 5
	case errors.Is(err, exrquy.ErrCutoff), errors.Is(err, exrquy.ErrCanceled):
		return 3
	case errors.Is(err, exrquy.ErrInternal):
		return 4
	case errors.Is(err, exrquy.ErrCorrupt):
		return 6
	}
	return 1
}

// fatal flushes any partial output, prints the message plus taxonomy
// diagnostics (phase, source position, plan dump for internal errors;
// the query name for cutoffs, so a timeout in a multi-query script is
// attributable) and exits with the mapped status code.
func fatal(err error, format string, args ...any) {
	stdout.Flush() // os.Exit skips defers; partial output must not die buffered
	fmt.Fprintf(os.Stderr, "exrquy: "+format+"\n", args...)
	if errors.Is(err, exrquy.ErrCutoff) || errors.Is(err, exrquy.ErrCanceled) {
		fmt.Fprintf(os.Stderr, "exrquy:   query: %s\n", queryName)
	}
	var qe *exrquy.QueryError
	if errors.As(err, &qe) {
		if qe.Phase != "" {
			fmt.Fprintf(os.Stderr, "exrquy:   phase: %s\n", qe.Phase)
		}
		if qe.Line > 0 {
			fmt.Fprintf(os.Stderr, "exrquy:   position: line %d, column %d\n", qe.Line, qe.Col)
		}
		if qe.Plan != "" {
			fmt.Fprintf(os.Stderr, "exrquy:   plan:\n%s", qe.Plan)
		}
	}
	if ra, ok := exrquy.RetryAfterOf(err); ok {
		fmt.Fprintf(os.Stderr, "exrquy:   retry after: %v\n", ra)
	}
	os.Exit(exitCode(err))
}
