// Command benchmark is the repository's benchmark: five workloads over
// the eXrQuy library, the exrquyd daemon and the on-disk store, seven
// end-to-end metrics per workload, and a separate traced run that prices
// every layer from outside. See README.md in this directory; the
// contract with the driver is BENCHMARK.json at the repository root.
//
// Run it through run.sh, which builds it and exrquyd first:
//
//	bash benchmark/run.sh                         every workload, untraced
//	bash benchmark/run.sh --workload adhoc --trace 1
//	bash benchmark/run.sh --aa --seed 2
//	bash benchmark/run.sh --validate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// hardLimit ends a run that hangs, inside the driver's 180 s allowance.
const hardLimit = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed     = flag.Uint64("seed", 1, "seed of the generated document and of the request order")
		seconds  = flag.Float64("seconds", 0, "length of the measured section (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a chrome trace under benchmark/out/")
		aa       = flag.Bool("aa", false, "run the end-to-end set twice and fail if any metric differs by more than its bound")
		validate = flag.Bool("validate", false, "check BENCHMARK.json against the contract and this program, then exit")
		exrquyd  = flag.String("exrquyd", ".bench_build/bin/exrquyd", "daemon binary for the serve workload")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace != 0, *aa, *validate, *exrquyd))
}

func run(workload string, seed uint64, seconds float64, trace, aa, validate bool, exrquyd string) int {
	m, err := checkManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if validate {
		fmt.Printf("%s: ok (%d workloads, %d end-to-end and %d per-layer metrics)\n",
			manifestFile, len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
		return 0
	}
	if seconds <= 0 {
		seconds = float64(m.RunSeconds)
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}

	limit := hardLimit * time.Duration(len(names))
	if aa {
		limit *= 2
	}
	defer cleanup.run()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case <-sig:
		case <-time.After(limit):
			fmt.Fprintln(os.Stderr, "benchmark: run exceeded its time limit")
		}
		cleanup.run()
		os.Exit(3)
	}()

	for _, name := range names {
		c := runConfig{workload: name, seed: seed, seconds: seconds, trace: trace, exrquyd: exrquyd}
		rep, err := runWorkload(c)
		if err == nil && aa {
			err = compareAA(c, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		rep.print(trace)
	}
	// Failed operations are in the printed result; the exit code only
	// says whether there is a result.
	return 0
}

func runWorkload(c runConfig) (*report, error) {
	for _, spec := range libSpecs {
		if spec.name == c.workload {
			return runLibrary(spec, c)
		}
	}
	switch c.workload {
	case "serve":
		return runServe(c)
	case "stored":
		return runStored(c)
	}
	return nil, fmt.Errorf("unknown workload (have paths, joins, adhoc, serve, stored)")
}

// compareAA measures the workload a second time on the same binary and
// reports an error if any end-to-end metric moved by more than its bound.
func compareAA(c runConfig, first *report) error {
	second, err := runWorkload(c)
	if err != nil {
		return err
	}
	var moved []string
	for _, d := range endToEndDefs {
		a, b := first.endToEnd[d.Name].Value, second.endToEnd[d.Name].Value
		worse := ratio(b-a, a)
		if d.Better == "higher" {
			worse = -worse
		}
		fmt.Printf("aa %-8s %-18s %12.4f -> %12.4f %s  %+6.1f%% (bound %.0f%%)\n", c.workload, d.Name, a, b, d.Unit, 100*worse, 100*d.Bound)
		if worse > d.Bound || -worse > d.Bound {
			moved = append(moved, d.Name)
		}
	}
	first.failed += second.failed
	if len(moved) > 0 {
		return fmt.Errorf("A/A: the same binary disagrees with itself on %v", moved)
	}
	return nil
}

// print writes the human-readable table and then, as the last line, the
// result object the driver reads.
func (r *report) print(trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}

	fmt.Printf("== %s: %d operations, %d failed\n", r.workload, r.attempted, r.failed)
	if trace {
		for _, d := range perLayerDefs {
			v := r.perLayer[d.Name]
			out.Metrics[d.Name] = value{v, d.Unit}
			fmt.Printf("%-8s %-32s %14.4f %-6s\n", r.workload, d.Name, v, d.Unit)
		}
	} else {
		fmt.Printf("%-8s %-18s %12s %-4s %6s %12s %12s %8s\n", "workload", "metric", "value", "unit", "n", "q1", "q3", "spread")
		for _, d := range endToEndDefs {
			m := r.endToEnd[d.Name]
			out.Metrics[d.Name] = value{m.Value, d.Unit}
			line := fmt.Sprintf("%-8s %-18s %12.4f %-4s %6d", r.workload, d.Name, m.Value, d.Unit, m.Samples.N)
			if m.Samples.Q3 > 0 {
				line += fmt.Sprintf(" %12.4f %12.4f %7.1f%%", m.Samples.Q1, m.Samples.Q3, 100*m.Samples.spread())
				// Noise guard: a within-run spread wider than the bound means
				// this run cannot resolve a regression of that size.
				if m.Samples.spread() > d.Bound {
					line += "  unresolved"
				}
			}
			fmt.Println(line)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("%-8s note: %s\n", r.workload, n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a struct of numbers and strings always encodes
	}
	fmt.Println(string(line))
}

// writeTrace writes the run's spans as a chrome trace under benchmark/out/.
func writeTrace(c runConfig, spans []span) error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed)))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cleanup holds what must be undone on every exit path: temporary
// directories to remove, a daemon to stop.
var cleanup cleanups

type cleanups struct {
	mu  sync.Mutex
	fns []func()
}

// add registers fn and returns a function that runs it now and
// unregisters it.
func (c *cleanups) add(fn func()) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var once sync.Once
	wrapped := func() { once.Do(fn) }
	c.fns = append(c.fns, wrapped)
	return wrapped
}

func (c *cleanups) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
