package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	exrquy "repro"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/xmarkq"
)

func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"slow down","status":429,"retry_after_ms":80}`)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond, RetryBudget: 1})
	start := time.Now()
	resp, err := c.Get(context.Background(), ts.URL+"/x")
	if err != nil || resp.Status != http.StatusOK || string(resp.Body) != "ok" {
		t.Fatalf("Get = %v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("retried after %v, want >= 80ms (the server's retry_after_ms)", elapsed)
	}
	if st := c.Stats(); st.Retries != 1 || st.Attempts != 2 {
		t.Fatalf("stats = %+v, want 1 retry over 2 attempts", st)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	// A microscopic budget: the seeded token allows one retry, then the
	// budget must refuse even though MaxAttempts would allow many more.
	c := New(Config{BaseURL: ts.URL, MaxAttempts: 10, BaseBackoff: time.Millisecond, RetryBudget: 0.001})
	resp, err := c.Get(context.Background(), ts.URL+"/x")
	if err != nil || resp.Status != http.StatusInternalServerError {
		t.Fatalf("Get = %v, %v; want the final 500 surfaced", resp, err)
	}
	st := c.Stats()
	if st.Retries != 1 || st.BudgetDenied != 1 || st.Attempts != 2 {
		t.Fatalf("stats = %+v, want exactly 1 budgeted retry then a denial", st)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "your fault", http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond, RetryBudget: 1})
	resp, err := c.Get(context.Background(), ts.URL+"/x")
	if err != nil || resp.Status != http.StatusBadRequest {
		t.Fatalf("Get = %v, %v", resp, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("400 was attempted %d times, want 1 (client mistakes don't retry)", n)
	}
}

func TestTruncatedBodyRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Partial 200 then an aborted handler: the chunked body never
			// terminates, so the client's read must fail, not return a
			// short result.
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, "<partial")
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		fmt.Fprint(w, "<complete/>")
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond, RetryBudget: 1})
	resp, err := c.Get(context.Background(), ts.URL+"/x")
	if err != nil || resp.Status != http.StatusOK || string(resp.Body) != "<complete/>" {
		t.Fatalf("Get = %v, %v; want the complete retried body", resp, err)
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Fatalf("stats = %+v, want the truncated read counted as 1 retry", st)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The primary wedges until the test ends (or is cancelled by
			// the client when the hedge wins).
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		fmt.Fprint(w, "fast")
	}))
	defer ts.Close()
	defer close(release)

	c := New(Config{BaseURL: ts.URL, Hedge: true, HedgeDelay: 10 * time.Millisecond})
	resp, err := c.Query(context.Background(), "1+1")
	if err != nil || resp.Status != http.StatusOK || string(resp.Body) != "fast" {
		t.Fatalf("Query = %v, %v", resp, err)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want the hedge launched and winning", st)
	}
}

// startFaultServer boots a real exrquyd serving stack with a seeded
// fault plan armed; the cleanup shuts it down and disarms the plan.
func startFaultServer(t *testing.T, factor float64, plan *fault.Plan) (*server.Server, string) {
	t.Helper()
	t.Cleanup(fault.Arm(plan))
	s := server.New(server.Config{})
	s.Engine().LoadXMark("auction.xml", factor)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve returned %v, want ErrServerClosed", err)
		}
	})
	return s, "http://" + s.Addr()
}

// TestDifferentialXMarkUnderFaults is the package's reason to exist:
// with deterministic fault injection forcing 500s, connection resets and
// truncated bodies onto the wire, the retrying+hedging client must
// return, for every XMark query, exactly the bytes a single-shot
// in-process execution produces. Order indifference licenses the
// re-execution; this test pins that the license is honored end to end.
//
// Determinism of success: failure-class faults fire at counter residues
// mod 7 (500), 13 (reset) and 17 (truncate), so any 16 consecutive
// requests contain at most 3+2+1 = 6 faulty ones — 8 attempts (each
// consuming at most two counters with its hedge) always reach a clean
// exchange.
func TestDifferentialXMarkUnderFaults(t *testing.T) {
	const factor = 0.002
	plan := &fault.Plan{
		Seed:  3,
		Every: fault.PerClass{fault.Err500: 7, fault.Reset: 13, fault.Truncate: 17, fault.Latency: 5},
		Args:  fault.PerClass{fault.Truncate: 24, fault.Latency: int64(2 * time.Millisecond)},
	}
	_, base := startFaultServer(t, factor, plan)

	ref := exrquy.New()
	ref.LoadXMark("auction.xml", factor)

	c := New(Config{
		BaseURL:     base,
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryBudget: 4,
		Hedge:       true,
		HedgeDelay:  5 * time.Millisecond,
		Seed:        42,
	})
	for pass := 0; pass < 2; pass++ { // second pass exercises the plan cache too
		for _, q := range xmarkq.All() {
			resp, err := c.Query(context.Background(), q.Text)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, q.Name, err)
			}
			if resp.Status != http.StatusOK {
				t.Fatalf("pass %d %s: status %d: %.200s", pass, q.Name, resp.Status, resp.Body)
			}
			want, err := ref.Query(q.Text)
			if err != nil {
				t.Fatalf("%s: reference: %v", q.Name, err)
			}
			wx, err := want.XML()
			if err != nil {
				t.Fatalf("%s: serialize: %v", q.Name, err)
			}
			if string(resp.Body) != wx {
				t.Errorf("pass %d %s: retried/hedged response differs from single-shot execution\ngot:  %.200q\nwant: %.200q",
					pass, q.Name, resp.Body, wx)
			}
		}
	}
	st := c.Stats()
	if plan.Injected() == 0 {
		t.Fatal("fault plan never injected a fault; the test exercised nothing")
	}
	if st.Retries == 0 {
		t.Fatalf("stats = %+v: no retries happened under an armed fault plan", st)
	}
	t.Logf("faults injected: %d; client stats: %+v", plan.Injected(), st)
}
