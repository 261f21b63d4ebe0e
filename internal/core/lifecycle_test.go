package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// lifecycleConfigs are the two configurations every lifecycle guarantee
// must hold on: the default, and the default with the inert
// Config.Parallelism facade set (see TestDifferentialParallel).
func lifecycleConfigs() map[string]Config {
	serial := DefaultConfig()
	par := DefaultConfig()
	par.Parallelism = 4
	return map[string]Config{"serial": serial, "parallel": par}
}

// TestCutoffTaxonomy checks that both cutoff classes surface through
// errors.Is, and that the legacy engine.ErrCutoff identity still holds.
func TestCutoffTaxonomy(t *testing.T) {
	store, docs := buildStoreWith(t, map[string]string{"f.xml": fuzzDoc})
	const q = `for $a in doc("f.xml")//e, $b in doc("f.xml")//e, $c in doc("f.xml")//e return $a/@k + $b/@k + $c/@k`
	for name, cfg := range lifecycleConfigs() {
		t.Run("timeout/"+name, func(t *testing.T) {
			c := cfg
			c.Timeout = time.Nanosecond
			p, err := Prepare(q, c)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			_, err = p.Run(store, docs)
			if err == nil {
				t.Fatal("1ns timeout did not fire")
			}
			for _, sentinel := range []error{qerr.ErrTimeout, qerr.ErrCutoff, engine.ErrCutoff} {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
				}
			}
			if errors.Is(err, qerr.ErrMemoryLimit) {
				t.Errorf("timeout misclassified as memory limit: %v", err)
			}
		})
		t.Run("memory/"+name, func(t *testing.T) {
			c := cfg
			c.MaxCells = 64
			p, err := Prepare(q, c)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			_, err = p.Run(store, docs)
			if err == nil {
				t.Fatal("64-cell memory limit did not fire")
			}
			for _, sentinel := range []error{qerr.ErrMemoryLimit, qerr.ErrCutoff, engine.ErrCutoff} {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
				}
			}
			if errors.Is(err, qerr.ErrTimeout) {
				t.Errorf("memory limit misclassified as timeout: %v", err)
			}
		})
	}
}

// TestPreCanceledContext: a context canceled before execution aborts
// immediately with both the taxonomy sentinel and the context cause.
func TestPreCanceledContext(t *testing.T) {
	store, docs := buildStoreWith(t, map[string]string{"f.xml": fuzzDoc})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, cfg := range lifecycleConfigs() {
		t.Run(name, func(t *testing.T) {
			p, err := Prepare(`doc("f.xml")//e`, cfg)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			_, err = p.RunContext(ctx, store, docs)
			if !errors.Is(err, qerr.ErrCanceled) {
				t.Errorf("not ErrCanceled: %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("context cause lost: %v", err)
			}
		})
	}
}

// TestContextDeadline: a context deadline is reported as a timeout (the
// cutoff taxonomy), not as a plain cancellation, and carries the
// context's DeadlineExceeded cause.
func TestContextDeadline(t *testing.T) {
	store, docs := buildStoreWith(t, map[string]string{"f.xml": fuzzDoc})
	const q = `for $a in doc("f.xml")//e, $b in doc("f.xml")//e return $a/@k + $b/@k`
	for name, cfg := range lifecycleConfigs() {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
			defer cancel()
			p, err := Prepare(q, cfg)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			_, err = p.RunContext(ctx, store, docs)
			if err == nil {
				t.Fatal("expired deadline did not abort")
			}
			if !errors.Is(err, qerr.ErrTimeout) || !errors.Is(err, qerr.ErrCutoff) {
				t.Errorf("deadline not classified as timeout cutoff: %v", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("context cause lost: %v", err)
			}
		})
	}
}

// TestCancelMidFlight is the headline robustness guarantee: canceling a
// long-running XMark join mid-execution unwinds promptly, the error wraps
// context.Canceled, and no goroutines are left behind. "Promptly" is structural, not wall-clock: the execution's store
// probe runs at every cooperative CheckCancel poll, so the test cancels
// from inside poll number cancelAt and bounds the polls begun and cells
// materialized once cancel() has returned. Wall-clock time between polls is
// machine noise and belongs to benchmark/, not to tier-1.
func TestCancelMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second XMark instance")
	}
	store := xmltree.NewStore()
	frag := xmark.Generate(xmark.Config{Factor: 0.1})
	docs := map[string][]uint32{"auction.xml": {store.Add(frag)}}
	// Q11 is a non-equi join that polls about three hundred times at
	// factor 0.1 (its inner loop is minted from the join's qualifying
	// pairs), so poll 150 is genuinely mid-flight: inside the join
	// pipeline.
	q := xmarkq.Get(11).Text
	const (
		cancelAt = 150
		// The run sees the cancellation at the poll that raised it; the
		// slack covers the polls that return the error.
		maxPollsAfter = 8
		// Cells are charged when an operator completes, behind a poll, so
		// nothing should complete after cancel; the slack is one chunk of
		// a kernel's output (32k rows, 32 columns wide).
		maxCellsAfter = 1 << 20
	)

	for name, cfg := range lifecycleConfigs() {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var polls, pollsAfter, cellsAtCancel atomic.Int64
			canceled := make(chan struct{})
			cfg.StoreProbe = func() func() error {
				return func() error {
					select {
					case <-canceled:
						pollsAfter.Add(1)
					default:
					}
					if polls.Add(1) == cancelAt {
						cancel()
						cellsAtCancel.Store(obs.CellsTotal.Load())
						close(canceled)
					}
					return nil
				}
			}
			p, err := Prepare(q, cfg)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := p.RunContext(ctx, store, docs)
				done <- err
			}()
			var runErr error
			select {
			case runErr = <-done:
			case <-canceled:
				select {
				case runErr = <-done:
				case <-time.After(10 * time.Second): // hang guard only
					t.Fatal("query did not return within 10s of cancellation")
				}
			}
			if n := polls.Load(); n < cancelAt {
				t.Fatalf("query finished after %d polls, before poll %d could cancel it (err: %v)", n, cancelAt, runErr)
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Errorf("error does not wrap context.Canceled: %v", runErr)
			}
			if !errors.Is(runErr, qerr.ErrCanceled) {
				t.Errorf("error does not wrap qerr.ErrCanceled: %v", runErr)
			}
			if n := pollsAfter.Load(); n > maxPollsAfter {
				t.Errorf("%d polls after cancel, want <= %d", n, maxPollsAfter)
			}
			if c := obs.CellsTotal.Load() - cellsAtCancel.Load(); c > maxCellsAfter {
				t.Errorf("%d cells materialized after cancel, want <= %d", c, maxCellsAfter)
			}
			// The run's goroutine must exit; poll because goroutine exit
			// is asynchronous with the error delivery.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if runtime.NumGoroutine() <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak after cancel: %d before, %d after",
						before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestPanicIsolation injects a panic into the engine's operator loop and
// requires it to surface as a diagnostic qerr.ErrInternal — with the
// pipeline phase and the optimized plan dump — instead of crashing.
func TestPanicIsolation(t *testing.T) {
	store, docs := buildStoreWith(t, map[string]string{"f.xml": fuzzDoc})
	engine.EvalHook = func(n *algebra.Node) {
		panic("injected kernel fault")
	}
	defer func() { engine.EvalHook = nil }()
	for name, cfg := range lifecycleConfigs() {
		t.Run(name, func(t *testing.T) {
			p, err := Prepare(`doc("f.xml")//e`, cfg)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			_, err = p.Run(store, docs)
			if err == nil {
				t.Fatal("injected panic produced a result")
			}
			if !errors.Is(err, qerr.ErrInternal) {
				t.Fatalf("panic not classified internal: %v", err)
			}
			var qe *qerr.Error
			if !errors.As(err, &qe) {
				t.Fatalf("no *qerr.Error in chain: %v", err)
			}
			if qe.Phase == "" {
				t.Error("recovered panic lost its pipeline phase")
			}
			if qe.Plan == "" {
				t.Error("internal error carries no plan dump")
			}
			if len(qe.Stack) == 0 {
				t.Error("recovered panic carries no stack trace")
			}
		})
	}
}

// TestDescendantScanCutoffs: the cell budget and the deadline both abort
// a count over one large descendant scan — the shape of a //-path from
// a single document root, one region scanned at once.
func TestDescendantScanCutoffs(t *testing.T) {
	store := xmltree.NewStore()
	docs := map[string][]uint32{"auction.xml": {store.Add(xmark.Generate(xmark.Config{Factor: 0.02}))}}
	const q = `count(doc("auction.xml")//keyword)`
	unordered := xquery.Unordered
	for name, limit := range map[string]func(*Config){
		"memory":  func(c *Config) { c.MaxCells = 64 },
		"timeout": func(c *Config) { c.Timeout = time.Nanosecond },
	} {
		cfg := DefaultConfig()
		cfg.ForceOrdering = &unordered
		limit(&cfg)
		p, err := Prepare(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(store, docs); !errors.Is(err, engine.ErrCutoff) {
			t.Errorf("%s cutoff: got %v, want ErrCutoff", name, err)
		}
	}
}

// TestKernelPanicIsolated arms the fault plane's panic class on every
// operator evaluation of an XMark join and requires the query to fail
// with a diagnostic internal error that names the execute phase and
// keeps the panic value, while the process lives on with no goroutine
// left behind.
func TestKernelPanicIsolated(t *testing.T) {
	store := xmltree.NewStore()
	docs := map[string][]uint32{"auction.xml": {store.Add(xmark.Generate(xmark.Config{Factor: 0.01}))}}
	p, err := Prepare(xmarkq.Get(8).Text, DefaultConfig())
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	defer fault.Arm(&fault.Plan{Every: fault.PerClass{fault.Panic: 1}})()
	before := runtime.NumGoroutine()
	_, err = p.Run(store, docs)
	if !errors.Is(err, qerr.ErrInternal) {
		t.Fatalf("kernel panic not classified internal: %v", err)
	}
	var qe *qerr.Error
	if !errors.As(err, &qe) {
		t.Fatalf("no *qerr.Error in chain: %v", err)
	}
	if !strings.Contains(qe.Phase, "execute") {
		t.Errorf("phase %q does not identify execution", qe.Phase)
	}
	if !strings.Contains(err.Error(), fault.InjectedPanic) {
		t.Errorf("panic value lost from message: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after kernel panic: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// opSpanCounter counts operator spans opened and closed.
type opSpanCounter struct{ opened, closed atomic.Int64 }

func (c *opSpanCounter) StartSpan(_ int, cat, _ string) func() {
	if cat != "op" {
		return func() {}
	}
	c.opened.Add(1)
	return func() { c.closed.Add(1) }
}

// TestOpSpanClosedOnFailure: an operator that fails still closes its
// tracer span — JSONTrace writes an event only on close, so an unclosed
// span is an operator missing from the trace, and the failed operator is
// the one a reader of the trace is looking for. The failure is injected
// at a descendant step, by a cell budget it overruns and by a panicking
// kernel. workers is the inert Config.Parallelism facade (see
// TestDifferentialParallel).
func TestOpSpanClosedOnFailure(t *testing.T) {
	store := xmltree.NewStore()
	docs := map[string][]uint32{"auction.xml": {store.Add(xmark.Generate(xmark.Config{Factor: 0.02}))}}
	unordered := xquery.Unordered
	for _, inject := range []string{"maxcells", "panic"} {
		for _, workers := range []int{1, 4} {
			for _, compiled := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/workers=%d/compiled=%t", inject, workers, compiled), func(t *testing.T) {
					tr := &opSpanCounter{}
					cfg := DefaultConfig()
					cfg.ForceOrdering = &unordered
					cfg.Parallelism = workers
					cfg.Compiled = compiled
					cfg.Tracer = tr
					if inject == "maxcells" {
						cfg.MaxCells = 64
					} else {
						defer fault.Arm(&fault.Plan{Every: fault.PerClass{fault.Panic: 1}})()
					}
					p, err := Prepare(`count(doc("auction.xml")//keyword)`, cfg)
					if err != nil {
						t.Fatalf("prepare: %v", err)
					}
					if _, err = p.Run(store, docs); err == nil {
						t.Fatal("injected failure produced a result")
					}
					if o, c := tr.opened.Load(), tr.closed.Load(); o == 0 || o != c {
						t.Errorf("%d operator spans opened, %d closed (run error: %v)", o, c, err)
					}
				})
			}
		}
	}
}
