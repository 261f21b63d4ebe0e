package xdm

import "sync/atomic"

// Byte ledger: process-wide memory accounting shared by every concurrent
// query execution.
//
// The engine's historical memory guard (engine.Options.MaxCells) is
// per-execution: N concurrent queries each get their own cell budget, so
// aggregate materialization is unbounded and heavy concurrent traffic can
// OOM a process that any single query would leave healthy. The Ledger
// closes that gap: one global byte budget that all executions draw from
// through per-query Accounts, so the sum of in-flight intermediate state
// is bounded no matter how many queries run at once. Exhaustion surfaces
// as an ordinary reservation failure that the engine classifies under
// qerr.ErrMemoryLimit — a failed query, never a dead process.
//
// Accounting is nominal, not exact: the engine charges NominalCellBytes
// per materialized table cell (see ChargeCells), which tracks the flat
// typed columns closely and undercounts boxed cells. The budget is a
// pressure-relief valve calibrated in real units, not a malloc shim.

// NominalCellBytes is the nominal cost of one materialized table cell
// charged against a Ledger. Flat typed columns (int64, float64, NodeID)
// cost 8 bytes per cell; boxed Item cells cost ~48. 16 splits the
// difference toward the dominant flat representation while keeping the
// arithmetic cheap.
const NominalCellBytes = 16

// Ledger is a process-wide byte budget. All methods are safe for
// concurrent use; reservations are atomic (CAS), so the budget is never
// oversubscribed even under races.
type Ledger struct {
	max  int64 // immutable after NewLedger; 0 = unlimited
	used atomic.Int64
}

// NewLedger returns a ledger bounded to maxBytes (0 = unlimited; the
// ledger then only tracks usage).
func NewLedger(maxBytes int64) *Ledger {
	return &Ledger{max: maxBytes}
}

// Used returns the bytes currently reserved across all accounts.
func (l *Ledger) Used() int64 { return l.used.Load() }

// reserve attempts to reserve n bytes, failing (without reserving) when
// the budget would be exceeded.
func (l *Ledger) reserve(n int64) bool {
	if l.max <= 0 {
		l.used.Add(n)
		return true
	}
	for {
		cur := l.used.Load()
		if cur+n > l.max {
			return false
		}
		if l.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns n bytes to the ledger.
func (l *Ledger) release(n int64) { l.used.Add(-n) }

// OverBudget describes a failed reservation: which bound was hit
// ("global" ledger or per-query "query" quota), the bound, the bytes
// already reserved against it, and the size of the failed request.
type OverBudget struct {
	Scope string // "global" or "query"
	Limit int64
	Used  int64
	Need  int64
}

// Account is one query's view of a Ledger: reservations draw from the
// global budget and are additionally capped by the account's own quota.
// Close releases everything the account reserved, so a query's ledger
// footprint provably drains when its execution ends — success, error and
// panic paths alike (callers Close in a defer). Reserve is safe for
// concurrent use (parallel morsel workers charge one shared account).
type Account struct {
	ledger *Ledger
	quota  int64 // 0 = no per-query cap
	used   atomic.Int64
	closed atomic.Bool
}

// NewAccount opens an account with the given per-query quota in bytes
// (0 = bounded only by the global ledger).
func (l *Ledger) NewAccount(quota int64) *Account {
	return &Account{ledger: l, quota: quota}
}

// Quota returns the account's per-query byte cap (0 = none).
func (a *Account) Quota() int64 { return a.quota }

// Used returns the bytes this account currently holds.
func (a *Account) Used() int64 { return a.used.Load() }

// Reserve charges n bytes against the account and the global ledger; a
// nil return means granted. On failure nothing is reserved and the
// returned OverBudget names the bound that was hit.
func (a *Account) Reserve(n int64) *OverBudget {
	if n <= 0 {
		return nil
	}
	if a.quota > 0 {
		for {
			cur := a.used.Load()
			if cur+n > a.quota {
				return &OverBudget{Scope: "query", Limit: a.quota, Used: cur, Need: n}
			}
			if a.used.CompareAndSwap(cur, cur+n) {
				break
			}
		}
		if !a.ledger.reserve(n) {
			a.used.Add(-n)
			return &OverBudget{Scope: "global", Limit: a.ledger.max, Used: a.ledger.Used(), Need: n}
		}
		return nil
	}
	if !a.ledger.reserve(n) {
		return &OverBudget{Scope: "global", Limit: a.ledger.max, Used: a.ledger.Used(), Need: n}
	}
	a.used.Add(n)
	return nil
}

// CanReserve reports whether a reservation of n bytes would currently be
// granted, without reserving (the prospective pre-check the engine runs
// before materializing a large join).
func (a *Account) CanReserve(n int64) *OverBudget {
	if n <= 0 {
		return nil
	}
	if cur := a.used.Load(); a.quota > 0 && cur+n > a.quota {
		return &OverBudget{Scope: "query", Limit: a.quota, Used: cur, Need: n}
	}
	if l := a.ledger; l.max > 0 {
		if cur := l.Used(); cur+n > l.max {
			return &OverBudget{Scope: "global", Limit: l.max, Used: cur, Need: n}
		}
	}
	return nil
}

// Release returns up to n bytes from the account to the ledger, clamped
// to the account's current holdings. Query executions never shrink —
// their footprint drains all at once through Close — but long-lived
// accounts whose footprint varies both ways (the out-of-core store's
// residency sampler, which mirrors sampled page residency into the
// ledger) need the shrink side too.
func (a *Account) Release(n int64) {
	if n <= 0 || a.closed.Load() {
		return
	}
	for {
		cur := a.used.Load()
		if cur <= 0 {
			return
		}
		take := n
		if take > cur {
			take = cur
		}
		if a.used.CompareAndSwap(cur, cur-take) {
			a.ledger.release(take)
			return
		}
	}
}

// Close releases every byte the account holds back to the ledger.
// Idempotent; the account must not Reserve afterwards.
func (a *Account) Close() {
	if !a.closed.CompareAndSwap(false, true) {
		return
	}
	if n := a.used.Swap(0); n != 0 {
		a.ledger.release(n)
	}
}
