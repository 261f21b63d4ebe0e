package governor

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/qerr"
)

// admitted is a test helper: Admit with a background context, failing the
// test on error.
func admitted(t *testing.T, g *Governor) *Lease {
	t.Helper()
	l, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	return l
}

func TestAdmitFastPath(t *testing.T) {
	g := New(Config{MaxConcurrent: 2})
	l := admitted(t, g)
	defer l.Release()
	if l.Degraded() {
		t.Error("first admission on an idle governor should not degrade")
	}
	if l.QueueWait() != 0 {
		t.Errorf("fast-path admission reports queue wait %v", l.QueueWait())
	}
	st := g.Stats()
	if st.Running != 1 || st.Admitted != 1 || st.QueuedTotal != 0 {
		t.Errorf("stats = %+v, want 1 running, 1 admitted, 0 queued", st)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	g := New(Config{MaxConcurrent: 1})
	l := admitted(t, g)
	l.Release()
	l.Release() // must not double-free the slot
	if st := g.Stats(); st.Running != 0 {
		t.Errorf("running = %d after double release, want 0", st.Running)
	}
	l2 := admitted(t, g)
	defer l2.Release()
	if st := g.Stats(); st.Running != 1 {
		t.Errorf("running = %d, want 1", st.Running)
	}
}

// TestQueueFIFO checks strict admission ordering: with one slot held,
// waiters are granted in arrival order as releases trickle in.
func TestQueueFIFO(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 8})
	first := admitted(t, g)

	const waiters = 5
	order := make(chan int, waiters)
	leases := make(chan *Lease, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		ready := make(chan struct{})
		go func() {
			close(ready)
			l, err := g.Admit(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			leases <- l
		}()
		<-ready
		// Wait until the goroutine is actually queued before starting the
		// next one, so arrival order is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for g.Stats().Queued != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	first.Release()
	for i := 0; i < waiters; i++ {
		got := <-order
		if got != i {
			t.Fatalf("admission %d went to waiter %d, want FIFO order", i, got)
		}
		(<-leases).Release()
	}
	if st := g.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Errorf("stats after drain = %+v, want idle", st)
	}
}

func TestQueueFullSheds(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	l := admitted(t, g)
	defer l.Release()

	// Fill the one queue slot.
	queued := make(chan error, 1)
	go func() {
		w, err := g.Admit(context.Background())
		if err == nil {
			w.Release()
		}
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The next arrival finds the queue full and is shed immediately.
	_, err := g.Admit(context.Background())
	if !errors.Is(err, qerr.ErrOverload) {
		t.Fatalf("queue-full admission: got %v, want ErrOverload", err)
	}
	if !qerr.IsRetryable(err) {
		t.Error("overload error should be retryable")
	}
	if hint, ok := qerr.RetryAfterOf(err); !ok || hint <= 0 {
		t.Errorf("overload error should carry a retry hint, got (%v, %v)", hint, ok)
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}

	l.Release()
	if err := <-queued; err != nil {
		t.Errorf("queued waiter: %v", err)
	}
}

func TestQueueDeadlineSheds(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	l := admitted(t, g)
	defer l.Release()

	start := time.Now()
	_, err := g.Admit(context.Background())
	if !errors.Is(err, qerr.ErrOverload) {
		t.Fatalf("deadline while queued: got %v, want ErrOverload", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("shed after %v, before the 20ms queue deadline", waited)
	}
	if hint, ok := qerr.RetryAfterOf(err); !ok || hint != 20*time.Millisecond {
		t.Errorf("retry hint = (%v, %v), want the queue deadline", hint, ok)
	}
	// The abandoned waiter must be off the queue: the next release hands
	// the slot to nobody and the governor goes idle.
	l.Release()
	if st := g.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Errorf("stats after deadline shed = %+v, want idle", st)
	}
}

func TestContextWhileQueued(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	l := admitted(t, g)
	defer l.Release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, qerr.ErrCanceled) {
		t.Errorf("cancel while queued: got %v, want ErrCanceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if _, err := g.Admit(dctx); !errors.Is(err, qerr.ErrTimeout) {
		t.Errorf("context deadline while queued: got %v, want ErrTimeout", err)
	}
}

// TestDegradeThenRecover drives both pressure signals and checks that
// degradation stops as soon as the pressure does.
func TestDegradeThenRecover(t *testing.T) {
	// Queue pressure: with waiters behind it, a granted query degrades;
	// the last waiter out is granted with an empty queue and runs full.
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	first := admitted(t, g)
	if first.Degraded() {
		t.Fatal("idle admission degraded")
	}
	got := make(chan *Lease, 2)
	for i := 0; i < 2; i++ {
		go func() {
			l, err := g.Admit(context.Background())
			if err != nil {
				t.Errorf("waiter: %v", err)
				return
			}
			got <- l
		}()
		deadline := time.Now().Add(5 * time.Second)
		for g.Stats().Queued != i+1 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never queued")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	first.Release()
	w1 := <-got
	if !w1.Degraded() {
		t.Error("admission with a waiter still queued should degrade")
	}
	if w1.QueueWait() <= 0 {
		t.Error("queued admission should report a positive queue wait")
	}
	w1.Release()
	w2 := <-got
	if w2.Degraded() {
		t.Error("admission after the queue drained should not degrade")
	}
	w2.Release()
	if st := g.Stats(); st.Downgrades != 1 {
		t.Errorf("downgrades = %d, want 1", st.Downgrades)
	}

	// Ledger pressure: above the high-water mark, new admissions degrade;
	// once the heavy query releases, they stop.
	g = New(Config{MaxConcurrent: 4, MaxBytes: 1000, HighWaterPct: 50})
	heavy := admitted(t, g)
	if ob := heavy.Account().Reserve(600); ob != nil {
		t.Fatalf("reserve 600/1000: %+v", ob)
	}
	under := admitted(t, g)
	if !under.Degraded() {
		t.Error("admission with the ledger above high water should degrade")
	}
	under.Release()
	heavy.Release() // drains the 600 bytes
	after := admitted(t, g)
	if after.Degraded() {
		t.Error("admission after the ledger drained should not degrade")
	}
	after.Release()
	if used := g.Ledger().Used(); used != 0 {
		t.Errorf("ledger used = %d after all releases, want 0", used)
	}
}

func TestLedgerQuotaAndGlobalExhaustion(t *testing.T) {
	g := New(Config{MaxConcurrent: 4, MaxBytes: 1000, QueryBytes: 300})
	a := admitted(t, g)
	defer a.Release()
	if ob := a.Account().Reserve(400); ob == nil || ob.Scope != "query" {
		t.Errorf("reserve beyond the per-query quota: %+v, want query-scope refusal", ob)
	}
	if ob := a.Account().Reserve(300); ob != nil {
		t.Errorf("reserve within quota refused: %+v", ob)
	}

	b := admitted(t, g)
	defer b.Release()
	c := admitted(t, g)
	defer c.Release()
	if ob := b.Account().Reserve(300); ob != nil {
		t.Errorf("second query within global budget refused: %+v", ob)
	}
	// 600 of 1000 reserved; a third 300-byte quota fits, but the global
	// budget only has 400 left — greater reservations must name the
	// global scope... 300 still fits. Exhaust it.
	if ob := c.Account().Reserve(300); ob != nil {
		t.Errorf("third query within global budget refused: %+v", ob)
	}
	d := admitted(t, g)
	defer d.Release()
	if ob := d.Account().Reserve(200); ob == nil || ob.Scope != "global" {
		t.Errorf("reserve beyond the global budget: %+v, want global-scope refusal", ob)
	}
	b.Release()
	if ob := d.Account().Reserve(200); ob != nil {
		t.Errorf("reserve after a release freed budget: %+v", ob)
	}
}

// admissionFaults admits n queries one at a time through a fresh
// governor with p armed and spells each outcome: 's' shed, 'q' starved
// quota, '.' clean.
func admissionFaults(t *testing.T, p *fault.Plan, n int) string {
	t.Helper()
	defer fault.Arm(p)()
	g := New(Config{})
	out := make([]byte, n)
	for i := range out {
		l, err := g.Admit(context.Background())
		switch {
		case errors.Is(err, qerr.ErrOverload):
			out[i] = 's'
			continue
		case err != nil:
			t.Fatalf("admission %d: %v", i, err)
		case l.Account().Quota() == p.Arg(fault.Starve):
			out[i] = 'q'
		default:
			out[i] = '.'
		}
		l.Release()
	}
	return string(out)
}

func TestFaultPlanDeterminism(t *testing.T) {
	mk := func(seed int64) *fault.Plan {
		return &fault.Plan{Seed: seed, Every: fault.PerClass{fault.Shed: 5, fault.Starve: 3, fault.Cancel: 7}}
	}
	a := admissionFaults(t, mk(42), 105) // lcm(5,3)=15 | 105, so counts are exact
	if b := admissionFaults(t, mk(42), 105); a != b {
		t.Fatalf("identical plans disagree:\n%s\n%s", a, b)
	}
	// Frequencies: 1-in-5 sheds, and shed takes precedence on collisions.
	if sheds := strings.Count(a, "s"); sheds != 21 {
		t.Errorf("sheds = %d in 105 admissions, want 21", sheds)
	}
	if starves := strings.Count(a, "q"); starves != 35-7 { // 1-in-3 minus the 1-in-15 collisions shed wins
		t.Errorf("starves = %d in 105 admissions, want 28", starves)
	}
	cancels := 0
	for i := int64(0); i < 105; i++ {
		if mk(42).Hits(fault.Cancel, i) {
			cancels++
		}
	}
	if cancels != 15 {
		t.Errorf("cancels = %d in 105 queries, want 15", cancels)
	}
	// A different seed shifts which admissions fault, not how many.
	c := admissionFaults(t, mk(43), 105)
	if c == a {
		t.Error("seed 43 faulted the same admissions as seed 42")
	}
	if sheds := strings.Count(c, "s"); sheds != 21 {
		t.Errorf("seed 43: sheds = %d, want 21", sheds)
	}
}

func TestInjectedAdmissionFaults(t *testing.T) {
	g := New(Config{MaxConcurrent: 4, MaxBytes: 1 << 20})
	defer fault.Arm(&fault.Plan{
		Every: fault.PerClass{fault.Shed: 3, fault.Starve: 2},
		Args:  fault.PerClass{fault.Starve: 64},
	})()
	// Seed 0: admissions 0, 3, 6, ... shed; 2 (not 0: shed wins), 4, 8, ...
	// get the starved 64-byte quota.
	if _, err := g.Admit(context.Background()); !errors.Is(err, qerr.ErrOverload) {
		t.Fatalf("admission 0: got %v, want injected ErrOverload", err)
	}
	l1, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("admission 1: %v", err)
	}
	defer l1.Release()
	if q := l1.Account().Quota(); q != 0 {
		t.Errorf("admission 1 quota = %d, want unstarved 0 (unlimited)", q)
	}
	l2, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("admission 2: %v", err)
	}
	defer l2.Release()
	if q := l2.Account().Quota(); q != 64 {
		t.Errorf("admission 2 quota = %d, want starved 64", q)
	}
	if ob := l2.Account().Reserve(128); ob == nil {
		t.Error("starved account should refuse a 128-byte reservation")
	}
}
