package obs

import (
	"cmp"
	"slices"
	"sort"
	"time"
)

// OpStats is the measured execution of one plan node: EXPLAIN ANALYZE
// attaches it to the Explain tree. Node is the plan node id (the "#id"
// prefix Explain prints), so stats join the rendered plan by id; the
// embedded OpRecord is what the executor loop measured.
type OpStats struct {
	Node   int    `json:"node"`
	Kind   string `json:"kind"`
	Label  string `json:"label"`
	Origin string `json:"origin,omitempty"`
	// Calls counts kernel evaluations (1 for every reachable node: shared
	// DAG nodes are evaluated once); MemoHits counts the reuses, the
	// node's consumers beyond the first.
	Calls    int64 `json:"calls"`
	MemoHits int64 `json:"memo_hits,omitempty"`
	OpRecord
}

// OpRecord is the record the executor loop writes once per operator, and
// all a pooled frame holds per instruction: RollUp sums the records into
// the profile, and a collected run copies them into OpStats.
type OpRecord struct {
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// Cells is rows×columns materialized for the node's output table —
	// the quantity the engine's memory cutoff charges.
	Cells int64 `json:"cells"`
	// Wall is wall-clock time spent evaluating the node.
	Wall time.Duration `json:"wall_ns"`
}

// RunStats is the collected observability record of one execution:
// per-node operator stats plus the run-level counters (memo hits, buffer
// pool traffic during the run).
type RunStats struct {
	Ops      []OpStats     `json:"ops"` // ascending node id
	Elapsed  time.Duration `json:"elapsed_ns"`
	MemoHits int64         `json:"memo_hits"`
	// PoolHits/PoolMisses are the xdm buffer-pool deltas over the run.
	// The pool is process-global: concurrent executions bleed into each
	// other's deltas, so treat these as exact only for isolated runs.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	// QueueWait records how long the resource governor kept the query
	// waiting for an admission slot. Zero without a governor.
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
}

// Op returns the stats for a plan node id, or nil if the node was never
// evaluated (pruned subtree of a shared DAG, or an error aborted the run
// first).
func (s *RunStats) Op(node int) *OpStats {
	i := sort.Search(len(s.Ops), func(i int) bool { return s.Ops[i].Node >= node })
	if i < len(s.Ops) && s.Ops[i].Node == node {
		return &s.Ops[i]
	}
	return nil
}

// ProfileEntry is one row of the per-origin profile (the paper's Table 2
// sub-expression rows): the operator records charged to one origin.
// Duration sums their Wall times.
type ProfileEntry struct {
	Origin   string
	Duration time.Duration
	Ops      int
	Rows     int // rows produced by operators with this origin
}

// RollUp charges each operator record ops[i] to origins[of[i]] and
// returns one entry per origin, by descending Duration (ties keep the
// order of origins). It is the profile view of the records EXPLAIN
// ANALYZE reads one by one.
func RollUp(ops []OpRecord, of []int32, origins []string) []ProfileEntry {
	prof := make([]ProfileEntry, len(origins))
	for i, o := range origins {
		prof[i].Origin = o
	}
	for i := range ops {
		e := &prof[of[i]]
		e.Duration += ops[i].Wall
		e.Ops++
		e.Rows += int(ops[i].RowsOut)
	}
	slices.SortStableFunc(prof, func(a, b ProfileEntry) int { return cmp.Compare(b.Duration, a.Duration) })
	return prof
}
