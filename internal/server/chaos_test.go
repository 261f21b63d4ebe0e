package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	exrquy "repro"
	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/xmarkq"
)

// TestChaosSoak is the seeded chaos drill: 32 concurrent retrying
// clients hammer a fault-armed daemon (forced 500s, connection resets,
// truncated bodies, injected latency) and the run must end clean —
// every 200 byte-identical to single-shot execution, the governor's
// ledger drained back to zero, and no goroutine leaked across shutdown.
func TestChaosSoak(t *testing.T) {
	const (
		factor    = 0.002
		workers   = 32
		perWorker = 12
	)
	baseline := runtime.NumGoroutine()

	plan := &fault.Plan{
		Seed: 11,
		Every: fault.PerClass{
			fault.Err500: 9, fault.Err503: 15, fault.Reset: 21, fault.Truncate: 25, fault.Latency: 6,
		},
		Args: fault.PerClass{fault.Truncate: 32, fault.Latency: int64(time.Millisecond)},
	}
	defer fault.Arm(plan)()
	s := New(Config{
		WatchdogTimeout: 5 * time.Second, // armed, but nothing should wedge
	})
	s.Engine().LoadXMark("auction.xml", factor)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	base := "http://" + s.Addr()

	// Single-shot reference results for the query mix.
	ref := exrquy.New()
	ref.LoadXMark("auction.xml", factor)
	mix := []int{1, 2, 8, 11, 13, 17}
	want := make(map[int]string, len(mix))
	for _, id := range mix {
		res, err := ref.Query(xmarkq.Get(id).Text)
		if err != nil {
			t.Fatalf("reference Q%d: %v", id, err)
		}
		xml, err := res.XML()
		if err != nil {
			t.Fatalf("serialize Q%d: %v", id, err)
		}
		want[id] = xml
	}

	c := client.New(client.Config{
		BaseURL:     base,
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryBudget: 4,
		Hedge:       true,
		HedgeDelay:  5 * time.Millisecond,
		Seed:        7,
	})
	var (
		ok        atomic.Int64
		exhausted atomic.Int64 // retries ran out; allowed, just counted
		mismatch  atomic.Int64
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := mix[(w+i)%len(mix)]
				resp, err := c.Query(context.Background(), xmarkq.Get(id).Text)
				if err != nil || resp.Status != http.StatusOK {
					exhausted.Add(1)
					continue
				}
				ok.Add(1)
				if string(resp.Body) != want[id] {
					mismatch.Add(1)
					t.Errorf("worker %d Q%d: 200 body differs from single-shot result", w, id)
				}
			}
		}(w)
	}
	wg.Wait()

	if mismatch.Load() != 0 {
		t.Fatalf("%d of %d successful responses were not byte-identical", mismatch.Load(), ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded; the soak exercised nothing")
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan never injected a fault")
	}

	// Drain: admission closes, in-flight queries finish, ledger returns
	// to zero and the process sheds every request-scoped goroutine.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
	if used := s.Governor().Stats().BytesInUse; used != 0 {
		t.Fatalf("ledger still holds %d bytes after drain", used)
	}
	waitNoGoroutineLeak(t, baseline)

	st := c.Stats()
	t.Logf("soak: %d ok, %d gave up; faults injected %d; client %+v",
		ok.Load(), exhausted.Load(), plan.Injected(), st)
	if st.Retries == 0 {
		t.Fatal("client never retried under an armed fault plan")
	}
}
