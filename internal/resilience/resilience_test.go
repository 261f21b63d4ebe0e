package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// fakeClock is an injectable, manually advanced clock for the limiter and
// breaker tests — no sleeping, fully deterministic.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLimiterBurstThenSustained(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter()
	l.now = clk.now
	rate := Rate{QPS: 10, Burst: 3}

	// The full burst is available immediately.
	for i := 0; i < 3; i++ {
		ok, _ := l.Allow("alice", rate)
		if !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	// The fourth is limited, with Retry-After = one token at 10 QPS = 100ms.
	ok, retryAfter := l.Allow("alice", rate)
	if ok {
		t.Fatal("request past burst admitted")
	}
	if retryAfter != 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 100ms", retryAfter)
	}
	// Waiting exactly the advertised Retry-After refills one token.
	clk.advance(retryAfter)
	if ok, _ := l.Allow("alice", rate); !ok {
		t.Fatal("request after advertised Retry-After still rejected")
	}
	if ok, _ := l.Allow("alice", rate); ok {
		t.Fatal("second request after one-token refill admitted")
	}
}

func TestLimiterIsolatesClients(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter()
	l.now = clk.now
	rate := Rate{QPS: 1, Burst: 1}

	if ok, _ := l.Allow("alice", rate); !ok {
		t.Fatal("alice's first request rejected")
	}
	if ok, _ := l.Allow("alice", rate); ok {
		t.Fatal("alice's second request admitted")
	}
	// Bob's bucket is untouched by alice exhausting hers.
	if ok, _ := l.Allow("bob", rate); !ok {
		t.Fatal("bob rejected because of alice's traffic")
	}
}

func TestLimiterDisabledAndNil(t *testing.T) {
	var nilL *Limiter
	if ok, _ := nilL.Allow("k", Rate{QPS: 1}); !ok {
		t.Fatal("nil limiter rejected")
	}
	l := NewLimiter()
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("k", Rate{}); !ok {
			t.Fatal("disabled rate rejected")
		}
	}
}

func TestRateDefaultBurst(t *testing.T) {
	if got := (Rate{QPS: 2.5}).burst(); got != 3 {
		t.Fatalf("burst() = %v, want ceil(2.5) = 3", got)
	}
	if got := (Rate{QPS: 0.5}).burst(); got != 1 {
		t.Fatalf("burst() = %v, want min 1", got)
	}
}

func TestWatchdogKillsSilentQuery(t *testing.T) {
	const threshold = 30 * time.Millisecond
	w := NewWatchdog(threshold)
	ctx, probe := w.Watch(context.Background())
	defer probe.Close()

	start := time.Now()
	select {
	case <-ctx.Done():
	case <-time.After(10 * threshold):
		t.Fatal("silent query not killed within 10x threshold")
	}
	// Detection contract: at least one full threshold of silence, at most
	// two (plus scheduling slack).
	elapsed := time.Since(start)
	if elapsed < threshold {
		t.Fatalf("killed after %v, before a full threshold of silence", elapsed)
	}
	if !IsStuck(context.Cause(ctx)) {
		t.Fatalf("cancellation cause = %v, want ErrStuck", context.Cause(ctx))
	}
	if w.Kills() != 1 {
		t.Fatalf("Kills() = %d, want 1", w.Kills())
	}
}

func TestWatchdogSparesBeatingQuery(t *testing.T) {
	const threshold = 25 * time.Millisecond
	w := NewWatchdog(threshold)
	ctx, probe := w.Watch(context.Background())
	defer probe.Close()

	beat := HeartbeatFrom(ctx)
	if beat == nil {
		t.Fatal("watched context carries no heartbeat")
	}
	// Beat well inside the threshold for several periods: no kill.
	deadline := time.Now().Add(5 * threshold)
	for time.Now().Before(deadline) {
		beat.Add(1)
		time.Sleep(threshold / 5)
		if err := ctx.Err(); err != nil {
			t.Fatalf("beating query killed: cause %v", context.Cause(ctx))
		}
	}
	probe.Close()
	if w.Kills() != 0 {
		t.Fatalf("Kills() = %d, want 0", w.Kills())
	}
}

func TestWatchdogCloseStopsKill(t *testing.T) {
	const threshold = 20 * time.Millisecond
	w := NewWatchdog(threshold)
	ctx, probe := w.Watch(context.Background())
	probe.Close()
	time.Sleep(3 * threshold)
	if ctx.Err() != nil {
		t.Fatalf("closed probe still killed the query: %v", context.Cause(ctx))
	}
}

func TestWatchdogNilSafe(t *testing.T) {
	var w *Watchdog
	ctx, probe := w.Watch(context.Background())
	probe.Close() // nil probe
	if ctx.Err() != nil {
		t.Fatal("nil watchdog touched the context")
	}
	if NewWatchdog(0) != nil {
		t.Fatal("NewWatchdog(0) should disable (nil)")
	}
}

func TestHeartbeatHelpers(t *testing.T) {
	if HeartbeatFrom(context.Background()) != nil {
		t.Fatal("background context has a heartbeat")
	}
	Beat(context.Background()) // must not panic without a heartbeat
	var n atomic.Int64
	ctx := WithHeartbeat(context.Background(), &n)
	Beat(ctx)
	Beat(ctx)
	if n.Load() != 2 {
		t.Fatalf("heartbeat = %d after two beats, want 2", n.Load())
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	b := NewBreakerSet(BreakerConfig{Failures: 3, Cooldown: time.Second})
	b.now = clk.now

	// Closed: failures below the threshold keep it closed, and a success
	// resets the consecutive count.
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow("alice"); !ok {
			t.Fatal("closed breaker rejected")
		}
		b.Record("alice", true)
	}
	b.Record("alice", false) // success resets
	for i := 0; i < 2; i++ {
		b.Allow("alice")
		b.Record("alice", true)
	}
	if ok, _ := b.Allow("alice"); !ok {
		t.Fatal("breaker opened before the consecutive threshold")
	}
	b.Record("alice", true) // third consecutive failure: trips open

	// Open: rejected with the cooldown remainder as Retry-After.
	ok, retryAfter := b.Allow("alice")
	if ok {
		t.Fatal("open breaker admitted")
	}
	if retryAfter <= 0 || retryAfter > time.Second {
		t.Fatalf("open Retry-After = %v, want (0, 1s]", retryAfter)
	}
	// Other clients are unaffected.
	if ok, _ := b.Allow("bob"); !ok {
		t.Fatal("bob broken by alice's circuit")
	}

	// After the cooldown, exactly one half-open probe is admitted.
	clk.advance(time.Second + time.Millisecond)
	if ok, _ := b.Allow("alice"); !ok {
		t.Fatal("half-open probe rejected after cooldown")
	}
	if ok, _ := b.Allow("alice"); ok {
		t.Fatal("second concurrent half-open probe admitted")
	}
	// Probe failure re-opens for another cooldown.
	b.Record("alice", true)
	if ok, _ := b.Allow("alice"); ok {
		t.Fatal("breaker closed after failed probe")
	}
	// Probe success closes.
	clk.advance(time.Second + time.Millisecond)
	if ok, _ := b.Allow("alice"); !ok {
		t.Fatal("second half-open probe rejected")
	}
	b.Record("alice", false)
	if ok, _ := b.Allow("alice"); !ok {
		t.Fatal("breaker still open after successful probe")
	}
	if st := b.States(); len(st) != 0 {
		t.Fatalf("States() = %v after recovery, want empty", st)
	}
}

func TestBreakerNilAndDisabled(t *testing.T) {
	var b *BreakerSet
	if ok, _ := b.Allow("k"); !ok {
		t.Fatal("nil breaker rejected")
	}
	b.Record("k", true)
	if NewBreakerSet(BreakerConfig{}) != nil {
		t.Fatal("zero config should disable (nil)")
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	a := &fault.Plan{Seed: 7, Every: fault.PerClass{fault.Err500: 5}}
	b := &fault.Plan{Seed: 7, Every: fault.PerClass{fault.Err500: 5}}
	for i := int64(0); i < 100; i++ {
		if a.Hits(fault.Err500, i) != b.Hits(fault.Err500, i) {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	// Exactly 1 in 5 over any aligned window.
	fired := 0
	for i := int64(0); i < 100; i++ {
		if a.Hits(fault.Err500, i) {
			fired++
		}
	}
	if fired != 20 {
		t.Fatalf("1-in-5 fault fired %d/100 times", fired)
	}
}

// faultServer serves inner behind InjectFaults with plan armed; the
// cleanup closes the server and disarms the plan.
func faultServer(t *testing.T, plan *fault.Plan, inner http.Handler) *httptest.Server {
	t.Helper()
	disarm := fault.Arm(plan)
	srv := httptest.NewServer(InjectFaults(inner))
	t.Cleanup(func() { srv.Close(); disarm() })
	return srv
}

func TestFaultMiddlewareClasses(t *testing.T) {
	body := strings.Repeat("x", 256)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	})

	// no plan armed: passthrough.
	srv := httptest.NewServer(InjectFaults(inner))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("disarmed request failed: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != body {
		t.Fatalf("disarmed middleware answered %d %q", resp.StatusCode, got)
	}

	// err500: seed 0, every request.
	srv = faultServer(t, &fault.Plan{Every: fault.PerClass{fault.Err500: 1}}, inner)
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatalf("forced-500 request failed at transport level: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "injected fault") {
		t.Fatalf("forced-500 body %q does not identify itself as injected", b)
	}

	// reset: the client sees a transport error, not a status.
	srv = faultServer(t, &fault.Plan{Every: fault.PerClass{fault.Reset: 1}}, inner)
	if resp, err := http.Get(srv.URL); err == nil {
		resp.Body.Close()
		t.Fatal("reset fault still produced a response")
	}

	// truncate: status + partial body arrive, then the read fails — a
	// truncated 200 can never be mistaken for a complete one.
	srv = faultServer(t, &fault.Plan{Every: fault.PerClass{fault.Truncate: 1}, Args: fault.PerClass{fault.Truncate: 10}}, inner)
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatalf("truncated request failed before headers: %v", err)
	}
	got, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("truncated body read succeeded with %d bytes", len(got))
	}
	if len(got) > 10 {
		t.Fatalf("read %d bytes past the 10-byte truncation point", len(got))
	}

	// latency: response still completes, and visibly later.
	latency := fault.PerClass{fault.Latency: int64(30 * time.Millisecond)}
	srv = faultServer(t, &fault.Plan{Every: fault.PerClass{fault.Latency: 1}, Args: latency}, inner)
	start := time.Now()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatalf("latency-injected request failed: %v", err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != body {
		t.Fatal("latency fault corrupted the body")
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("latency fault did not delay")
	}

}

// The HTTP classes of the fault spec grammar: each key lands on its
// class with its :suffix argument, and malformed HTTP keys are refused.
func TestParseFaultSpec(t *testing.T) {
	plan, err := fault.Parse("seed=7,latency=13:3ms,err500=17,err503=19,reset=23,truncate=29:64")
	if err != nil {
		t.Fatalf("fault.Parse: %v", err)
	}
	want := fault.PerClass{fault.Latency: 13, fault.Err500: 17, fault.Err503: 19, fault.Reset: 23, fault.Truncate: 29}
	if plan.Seed != 7 || plan.Every != want ||
		plan.Arg(fault.Latency) != int64(3*time.Millisecond) || plan.Arg(fault.Truncate) != 64 {
		t.Fatalf("parsed seed=%d every=%v latency=%v truncate=%d",
			plan.Seed, plan.Every, time.Duration(plan.Arg(fault.Latency)), plan.Arg(fault.Truncate))
	}
	if p, err := fault.Parse(""); err != nil || p != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{"nope", "x=1", "err500=abc", "err500=1:5ms", "latency=3:zzz"} {
		if _, err := fault.Parse(bad); err == nil {
			t.Fatalf("fault.Parse(%q) accepted", bad)
		}
	}
}

var errProbe = errors.New("probe")

func TestIsStuck(t *testing.T) {
	if IsStuck(errProbe) {
		t.Fatal("unrelated error reported stuck")
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(ErrStuck)
	<-ctx.Done()
	if !IsStuck(context.Cause(ctx)) {
		t.Fatal("ErrStuck cause not detected")
	}
}
