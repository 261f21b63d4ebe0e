package governor_test

// The governor soak: ≥32 concurrent XMark queries hammer one governor
// while a seeded fault plan injects every fault class at once — starved
// memory quotas, admission sheds, kernel panics and cancel storms. The
// process must fail queries, never die: every error is a
// classified taxonomy error, every successful result is byte-identical
// to the unfaulted serial baseline, the shared ledger drains back to
// zero, and no goroutines leak.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/qerr"
	"repro/internal/xmark"
	"repro/internal/xmarkq"
	"repro/internal/xmltree"
)

func soakEnv() (*xmltree.Store, map[string][]uint32) {
	f := xmark.Generate(xmark.Config{Factor: 0.002})
	store := xmltree.NewStore()
	return store, map[string][]uint32{"auction.xml": {store.Add(f)}}
}

func TestGovernorSoak(t *testing.T) {
	store, docs := soakEnv()
	queryIDs := []int{1, 8, 11}

	// Unfaulted serial baseline: the byte-identity oracle.
	baseline := make(map[int]string)
	prepared := make(map[int]*core.Prepared)
	for _, id := range queryIDs {
		q := xmarkq.Get(id)
		cfg := core.DefaultConfig()
		p, err := core.Prepare(q.Text, cfg)
		if err != nil {
			t.Fatalf("%s: prepare baseline: %v", q.Name, err)
		}
		res, err := p.Run(store, docs)
		if err != nil {
			t.Fatalf("%s: baseline run: %v", q.Name, err)
		}
		xml, err := xmltree.SerializeItems(res.Store, res.Items)
		if err != nil {
			t.Fatalf("%s: baseline serialize: %v", q.Name, err)
		}
		baseline[id] = xml
	}

	plan := &fault.Plan{
		Seed: 1,
		Every: fault.PerClass{
			fault.Starve: 7, fault.Shed: 5, fault.Panic: 701, fault.Cancel: 11,
		},
		Args: fault.PerClass{fault.Starve: 4096},
	}
	gov := governor.New(governor.Config{
		MaxConcurrent: 4,
		MaxQueue:      64,
		MaxBytes:      256 << 20,
	})
	// Governed plans shared across all clients (concurrent Prepared reuse
	// is part of what soaks).
	for _, id := range queryIDs {
		cfg := core.DefaultConfig()
		cfg.Governor = gov
		p, err := core.Prepare(xmarkq.Get(id).Text, cfg)
		if err != nil {
			t.Fatalf("Q%d: prepare governed: %v", id, err)
		}
		prepared[id] = p
	}
	defer fault.Arm(plan)()

	const (
		clients = 32
		rounds  = 4
	)
	goroutinesBefore := runtime.NumGoroutine()

	var (
		mu        sync.Mutex
		successes = map[int]int{}
		faulted   = map[string]int{} // error class -> count
		failures  []string
	)
	classify := func(err error) string {
		switch {
		case errors.Is(err, qerr.ErrOverload):
			return "overload"
		case errors.Is(err, qerr.ErrMemoryLimit):
			return "memory"
		case errors.Is(err, qerr.ErrInternal):
			return "panic"
		case errors.Is(err, qerr.ErrTimeout):
			return "timeout"
		case errors.Is(err, qerr.ErrCanceled):
			return "canceled"
		}
		return ""
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := c*rounds + r
				id := queryIDs[n%len(queryIDs)]
				ctx := context.Background()
				var cancel context.CancelFunc
				if plan.Hits(fault.Cancel, int64(n)) {
					// Cancel storm: a deadline tight enough to usually fire
					// mid-execution. Queries that finish first are fine —
					// the storm tests the abort path, not a specific victim.
					ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				}
				res, err := prepared[id].RunContext(ctx, store, docs)
				if cancel != nil {
					cancel()
				}
				mu.Lock()
				if err == nil {
					xml, serr := xmltree.SerializeItems(res.Store, res.Items)
					if serr != nil {
						failures = append(failures, fmt.Sprintf("run %d (Q%d): serialize: %v", n, id, serr))
					} else if xml != baseline[id] {
						failures = append(failures, fmt.Sprintf("run %d (Q%d): result differs from serial baseline", n, id))
					} else {
						successes[id]++
					}
				} else if class := classify(err); class != "" {
					faulted[class]++
				} else {
					failures = append(failures, fmt.Sprintf("run %d (Q%d): unclassified error: %v", n, id, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	for _, id := range queryIDs {
		if successes[id] == 0 {
			t.Errorf("Q%d: no faulted-soak run succeeded (cannot check byte identity)", id)
		}
	}
	// The plan injects 1-in-5 admission sheds; with 128 runs some must
	// have fired, and they must have surfaced as overloads.
	if faulted["overload"] == 0 {
		t.Error("no run was shed despite shed=5")
	}
	// 1-in-7 admissions get a 4 KiB quota no XMark query fits in.
	if faulted["memory"] == 0 {
		t.Error("no run starved despite starve=7")
	}
	t.Logf("soak: successes=%v faulted=%v governor=%+v", successes, faulted, gov.Stats())

	// Invariants after the storm: all slots free, queue empty, every byte
	// returned to the ledger, no goroutine left behind.
	st := gov.Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("governor not idle after soak: %+v", st)
	}
	if used := gov.Ledger().Used(); used != 0 {
		t.Errorf("ledger holds %d bytes after all leases released, want 0", used)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before soak, %d after", goroutinesBefore, runtime.NumGoroutine())
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGovernorSoakQueued queues two clients behind a held admission slot
// and requires both runs, granted one after the other, to serialise
// byte-identically to an ungoverned run and to leave the ledger at zero.
func TestGovernorSoakQueued(t *testing.T) {
	store, docs := soakEnv()
	q := xmarkq.Get(1)

	cfg := core.DefaultConfig()
	basep, err := core.Prepare(q.Text, cfg)
	if err != nil {
		t.Fatalf("prepare baseline: %v", err)
	}
	baseRes, err := basep.Run(store, docs)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want, err := xmltree.SerializeItems(baseRes.Store, baseRes.Items)
	if err != nil {
		t.Fatalf("baseline serialize: %v", err)
	}

	gov := governor.New(governor.Config{MaxConcurrent: 1, MaxQueue: 32})
	gcfg := core.DefaultConfig()
	gcfg.Governor = gov
	p, err := core.Prepare(q.Text, gcfg)
	if err != nil {
		t.Fatalf("prepare governed: %v", err)
	}

	// Occupy the single slot directly, then queue two clients behind it.
	// Holding the slot by hand makes the sequence deterministic on any
	// scheduler (on a single-CPU box, sub-millisecond queries never
	// overlap by timing alone).
	blocker, err := gov.Admit(context.Background())
	if err != nil {
		t.Fatalf("blocker admit: %v", err)
	}
	const clients = 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.RunContext(context.Background(), store, docs)
			if err != nil {
				t.Errorf("governed run: %v", err)
				return
			}
			xml, err := xmltree.SerializeItems(res.Store, res.Items)
			if err != nil {
				t.Errorf("serialize: %v", err)
				return
			}
			if xml != want {
				t.Error("queued result differs from the ungoverned run")
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for gov.Stats().Queued != clients {
		if time.Now().After(deadline) {
			t.Fatalf("clients never queued: %+v", gov.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	blocker.Release()
	wg.Wait()

	if st := gov.Stats(); st.QueuedTotal != clients {
		t.Errorf("queued total = %d, want %d (stats %+v)", st.QueuedTotal, clients, st)
	}
	if used := gov.Ledger().Used(); used != 0 {
		t.Errorf("ledger holds %d bytes after soak, want 0", used)
	}
}
