// Package governor is the process-wide resource governor every query
// passes through when multi-query governance is enabled: admission
// control in front of the execution pipeline, one shared memory ledger
// behind it, and graceful degradation between the two.
//
// The per-query guards introduced earlier in the repository's history
// (cell budgets, deadlines, cancellation, panic barriers) protect one
// execution from itself; none of them bounds the *aggregate*. N
// concurrent ExecuteContext calls each get their own cell budget and
// their own morsel workers, so heavy concurrent traffic can OOM-kill or
// oversubscribe a process that any single query would leave healthy. The
// governor closes that gap with three mechanisms:
//
//   - Admission control: a fixed number of execution slots with a
//     bounded FIFO wait queue. A query that finds no free slot waits its
//     turn (optionally bounded by a queue deadline); a query that finds
//     the queue full is shed immediately with qerr.ErrOverload — a
//     retryable error carrying a Retry-After-style hint — instead of
//     piling onto a saturated process.
//
//   - Shared memory ledger: all admitted queries draw their intermediate
//     materialization from one global byte budget (xdm.Ledger), each
//     through a per-query account with an optional quota. Exhaustion
//     surfaces as the existing qerr.ErrMemoryLimit, naming the bound and
//     the observed usage — a failed query, never an OOM kill.
//
//   - Graceful degradation: when the process is under pressure (ledger
//     above its high-water mark, or queries waiting in the admission
//     queue) newly admitted queries are downgraded — their Par-marked
//     plan regions run their serial kernels instead of fanning out
//     morsel workers. The paper's own analysis makes this safe: the only
//     regions the morsel pool touches are the order-indifferent
//     ones (# instead of ρ), which by construction produce identical
//     results serial or parallel, so degradation changes resource
//     consumption and nothing else. The downgrade is recorded in the
//     governor metrics and in the run's statistics.
//
// Admission is the fault.Admissions site of the process's fault plane
// (internal/fault): an armed plan's shed and starve classes inject
// queue-timeout sheds and starved quotas, which — with the plan's kernel
// panics and cancel storms — drive the same machinery in soak tests,
// asserting that the process degrades instead of dying
// and that the ledger drains back to zero.
package governor

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/resilience"
	"repro/internal/xdm"
)

// queueBeatInterval is how often a queued admission bumps its watchdog
// heartbeat (resilience.WithHeartbeat on the request context): a query
// waiting its turn is waiting, not stuck, and must not look silent.
const queueBeatInterval = 100 * time.Millisecond

// Config tunes a Governor. The zero value is usable: DefaultConfig's
// documented defaults are substituted for zero fields by New.
type Config struct {
	// MaxConcurrent is the number of queries allowed to execute
	// simultaneously (admission slots). <= 0 means 2×GOMAXPROCS — enough
	// to keep every core busy with a mix of serial and degraded queries
	// without goroutine blowup.
	MaxConcurrent int
	// MaxQueue bounds the FIFO admission queue. A query arriving with
	// the queue full is shed with qerr.ErrOverload. <= 0 means
	// 8×MaxConcurrent.
	MaxQueue int
	// QueueTimeout bounds how long one query may wait for admission; a
	// query still queued when it expires is shed with qerr.ErrOverload.
	// Zero means no queue deadline (the query's own context still
	// applies while it waits).
	QueueTimeout time.Duration
	// MaxBytes is the global memory ledger: the byte budget all admitted
	// queries share for intermediate materialization (at
	// xdm.NominalCellBytes per table cell). Zero means unlimited — the
	// ledger still tracks usage for the pressure signal and metrics.
	MaxBytes int64
	// QueryBytes is the per-query quota drawn against the global ledger
	// (zero = bounded only by MaxBytes). Keeping it a fraction of
	// MaxBytes stops one runaway query from starving the fleet.
	QueryBytes int64
	// HighWaterPct is the degradation threshold as a percentage of
	// MaxBytes: once the ledger is fuller than this, newly admitted
	// queries run degraded (serial). <= 0 means 75. Ignored when
	// MaxBytes is zero (queue pressure still degrades).
	HighWaterPct int
}

// Stats is a point-in-time snapshot of a governor.
type Stats struct {
	Running     int   // queries currently holding an admission slot
	Queued      int   // queries currently waiting for admission
	BytesInUse  int64 // ledger reservation across all running queries
	MaxBytes    int64 // configured global budget (0 = unlimited)
	Admitted    int64 // cumulative admissions
	QueuedTotal int64 // cumulative queries that had to wait
	Shed        int64 // cumulative overload rejections
	Downgrades  int64 // cumulative degraded admissions
}

// Governor is the process-wide gate. One Governor is typically shared by
// every Engine in the process (that is the point: the budgets are global),
// but nothing stops scoping one per tenant. All methods are safe for
// concurrent use.
type Governor struct {
	cfg       Config
	highWater int64
	ledger    *xdm.Ledger

	mu      sync.Mutex
	running int
	queue   *list.List // of *waiter, FIFO

	// Cumulative per-governor counters (tests and Stats read these; the
	// process-wide obs metrics aggregate across governors).
	admitted    atomic.Int64
	queuedTotal atomic.Int64
	shed        atomic.Int64
	downgrades  atomic.Int64
}

// waiter is one queued admission request.
type waiter struct {
	ready   chan struct{} // closed on grant, with granted set first
	granted bool          // guarded by Governor.mu
	elem    *list.Element
}

// New builds a governor, substituting defaults for zero Config fields.
func New(cfg Config) *Governor {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8 * cfg.MaxConcurrent
	}
	if cfg.HighWaterPct <= 0 {
		cfg.HighWaterPct = 75
	}
	g := &Governor{
		cfg:    cfg,
		ledger: xdm.NewLedger(cfg.MaxBytes),
		queue:  list.New(),
	}
	if cfg.MaxBytes > 0 {
		g.highWater = cfg.MaxBytes * int64(cfg.HighWaterPct) / 100
	}
	return g
}

// Ledger exposes the shared byte ledger (read-mostly: tests and serving
// layers watch Used; reservations go through leases).
func (g *Governor) Ledger() *xdm.Ledger { return g.ledger }

// Stats snapshots the governor.
func (g *Governor) Stats() Stats {
	g.mu.Lock()
	running, queued := g.running, g.queue.Len()
	g.mu.Unlock()
	return Stats{
		Running:     running,
		Queued:      queued,
		BytesInUse:  g.ledger.Used(),
		MaxBytes:    g.cfg.MaxBytes,
		Admitted:    g.admitted.Load(),
		QueuedTotal: g.queuedTotal.Load(),
		Shed:        g.shed.Load(),
		Downgrades:  g.downgrades.Load(),
	}
}

// retryHint is the Retry-After-style backoff the governor attaches to
// overload errors: the queue deadline when one is configured (by then a
// slot plausibly opened), otherwise a flat 100ms.
func (g *Governor) retryHint() time.Duration {
	if g.cfg.QueueTimeout > 0 {
		return g.cfg.QueueTimeout
	}
	return 100 * time.Millisecond
}

// underPressureLocked decides degradation for a query admitted now:
// ledger above the high-water mark, or queries waiting behind this one.
// Callers hold g.mu.
func (g *Governor) underPressureLocked() bool {
	if g.highWater > 0 && g.ledger.Used() >= g.highWater {
		return true
	}
	return g.queue.Len() > 0
}

// quotaKey carries a per-admission ledger-quota override in a context.
type quotaKey struct{}

// WithQuota returns a context whose admissions through any Governor draw
// their per-query ledger account with the given byte quota instead of the
// governor's Config.QueryBytes. This is how a serving layer maps
// per-client quotas onto governor accounts without fragmenting prepared
// plans per client: the plan is shared, the quota rides on the request
// context. bytes <= 0 means "no per-query bound" (the shared MaxBytes
// ledger still applies).
func WithQuota(ctx context.Context, bytes int64) context.Context {
	return context.WithValue(ctx, quotaKey{}, bytes)
}

// QuotaFrom reads a WithQuota override from ctx; ok is false when the
// context carries none (the governor's configured default applies).
func QuotaFrom(ctx context.Context) (bytes int64, ok bool) {
	bytes, ok = ctx.Value(quotaKey{}).(int64)
	return bytes, ok
}

// Admit blocks until the query may execute, the context is done, or the
// queue deadline passes. On success it returns a Lease the caller must
// Release when the execution finishes (error paths included). Shed
// queries — queue full, queue deadline, injected queue faults — return
// an error wrapping qerr.ErrOverload with a RetryAfter hint; a context
// expiring while queued returns qerr.ErrCanceled/ErrTimeout like any
// other cooperative abort. A WithQuota context overrides the per-query
// ledger quota for this admission only.
func (g *Governor) Admit(ctx context.Context) (*Lease, error) {
	quota := g.cfg.QueryBytes
	if q, ok := QuotaFrom(ctx); ok {
		quota = q
	}
	if p := fault.Armed(); p != nil {
		// Shed wins when both residues collide on one admission.
		i := p.Next(fault.Admissions)
		if p.Fire(fault.Shed, i) {
			g.shed.Add(1)
			obs.ShedTotal.Inc()
			return nil, qerr.Overload(g.retryHint(),
				"governor: injected queue timeout: %w", qerr.ErrOverload)
		}
		if p.Fire(fault.Starve, i) {
			quota = p.Arg(fault.Starve)
		}
	}

	g.mu.Lock()
	// Fast path: free slot and nobody queued ahead (FIFO is strict —
	// arriving queries never overtake waiters).
	if g.running < g.cfg.MaxConcurrent && g.queue.Len() == 0 {
		g.running++
		lease := g.newLeaseLocked(quota, 0)
		g.mu.Unlock()
		return lease, nil
	}
	if g.queue.Len() >= g.cfg.MaxQueue {
		queued, running := g.queue.Len(), g.running
		g.mu.Unlock()
		g.shed.Add(1)
		obs.ShedTotal.Inc()
		return nil, qerr.Overload(g.retryHint(),
			"governor: admission queue full (%d queued, %d running, %d slots): %w",
			queued, running, g.cfg.MaxConcurrent, qerr.ErrOverload)
	}
	w := &waiter{ready: make(chan struct{})}
	w.elem = g.queue.PushBack(w)
	depth := g.queue.Len()
	g.mu.Unlock()
	g.queuedTotal.Add(1)
	obs.QueuedTotal.Inc()
	obs.QueueDepth.Set(int64(depth))

	var deadline <-chan time.Time
	if g.cfg.QueueTimeout > 0 {
		t := time.NewTimer(g.cfg.QueueTimeout)
		defer t.Stop()
		deadline = t.C
	}
	// A watchdog-watched request carries a heartbeat: beat it while
	// queued so admission waits never read as wedged queries.
	var beatTick <-chan time.Time
	beat := resilience.HeartbeatFrom(ctx)
	if beat != nil {
		tick := time.NewTicker(queueBeatInterval)
		defer tick.Stop()
		beatTick = tick.C
	}
	enqueued := time.Now()
	for {
		select {
		case <-w.ready:
			wait := time.Since(enqueued)
			obs.QueueWaitNanos.Observe(wait.Nanoseconds())
			g.mu.Lock()
			lease := g.newLeaseLocked(quota, wait)
			g.mu.Unlock()
			return lease, nil
		case <-ctx.Done():
			if lease := g.abandonWait(w, quota, enqueued); lease != nil {
				// Granted concurrently with cancellation: the slot is ours, but
				// the query is dead. Hand the slot back and report the abort.
				lease.Release()
			}
			cause := ctx.Err()
			kind := qerr.ErrCanceled
			if errors.Is(cause, context.DeadlineExceeded) {
				kind = qerr.ErrTimeout
			}
			return nil, qerr.New(kind, "admit",
				fmt.Errorf("governor: context done while queued for admission: %w", cause))
		case <-deadline:
			if lease := g.abandonWait(w, quota, enqueued); lease != nil {
				lease.Release()
			}
			g.shed.Add(1)
			obs.ShedTotal.Inc()
			return nil, qerr.Overload(g.retryHint(),
				"governor: queue deadline (%s) passed before a slot opened: %w",
				g.cfg.QueueTimeout, qerr.ErrOverload)
		case <-beatTick:
			beat.Add(1)
		}
	}
}

// abandonWait removes w from the queue. If the grant raced ahead of the
// abandonment, the slot already belongs to w; the returned lease (built
// under the same lock) lets the caller hand it back through the ordinary
// release path. Returns nil when w was still queued.
func (g *Governor) abandonWait(w *waiter, quota int64, enqueued time.Time) *Lease {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return g.newLeaseLocked(quota, time.Since(enqueued))
	}
	g.queue.Remove(w.elem)
	obs.QueueDepth.Set(int64(g.queue.Len()))
	return nil
}

// newLeaseLocked builds the lease for a query that holds a slot; quota is
// the per-query ledger quota (a WithQuota override, the configured
// default or an injected starved quota). Callers hold g.mu (the pressure
// check reads queue depth).
func (g *Governor) newLeaseLocked(quota int64, wait time.Duration) *Lease {
	degraded := g.underPressureLocked()
	l := &Lease{
		g:         g,
		acct:      g.ledger.NewAccount(quota),
		degraded:  degraded,
		queueWait: wait,
	}
	g.admitted.Add(1)
	obs.AdmittedTotal.Inc()
	obs.ActiveQueries.Set(int64(g.running))
	obs.LedgerBytes.Set(g.ledger.Used())
	if degraded {
		g.downgrades.Add(1)
		obs.DowngradesTotal.Inc()
	}
	return l
}

// Lease is one admitted query's claim on the governor: an execution slot
// plus a ledger account. Release returns both; it is idempotent and must
// run on every exit path (callers defer it immediately after Admit).
type Lease struct {
	g         *Governor
	acct      *xdm.Account
	degraded  bool
	queueWait time.Duration
	released  atomic.Bool
}

// Account returns the query's ledger account (never nil; with no byte
// budget configured the account is unbounded but still tracks usage).
func (l *Lease) Account() *xdm.Account { return l.acct }

// Degraded reports whether the governor downgraded this query: its
// Par-marked plan regions must run their serial kernels.
func (l *Lease) Degraded() bool { return l.degraded }

// QueueWait returns how long the query waited for admission.
func (l *Lease) QueueWait() time.Duration { return l.queueWait }

// Release drains the query's ledger account and hands the admission slot
// to the longest-waiting queued query, if any.
func (l *Lease) Release() {
	if !l.released.CompareAndSwap(false, true) {
		return
	}
	l.acct.Close()
	g := l.g
	g.mu.Lock()
	if e := g.queue.Front(); e != nil {
		// Transfer the slot: running stays constant, the waiter wakes
		// holding it (granted set under the lock closes the race with
		// queue abandonment).
		w := g.queue.Remove(e).(*waiter)
		w.granted = true
		close(w.ready)
	} else {
		g.running--
	}
	running, depth := g.running, g.queue.Len()
	g.mu.Unlock()
	obs.ActiveQueries.Set(int64(running))
	obs.QueueDepth.Set(int64(depth))
	obs.LedgerBytes.Set(g.ledger.Used())
}
