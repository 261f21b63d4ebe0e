package obs

import (
	"cmp"
	"slices"
	"sort"
	"time"
)

// WorkerStats is one worker's share of a parallel operator: how many
// morsel tasks it pulled and how long it was busy with them.
type WorkerStats struct {
	Worker  int           `json:"worker"`
	Morsels int64         `json:"morsels"`
	Busy    time.Duration `json:"busy_ns"`
}

// OpStats is the measured execution of one plan node: EXPLAIN ANALYZE
// attaches it to the Explain tree. Node is the plan node id (the "#id"
// prefix Explain prints), so stats join the rendered plan by id; the
// embedded OpRecord is what the executor loop measured.
type OpStats struct {
	Node   int    `json:"node"`
	Kind   string `json:"kind"`
	Label  string `json:"label"`
	Origin string `json:"origin,omitempty"`
	Par    bool   `json:"par,omitempty"`
	// Calls counts kernel evaluations (1 for every reachable node: shared
	// DAG nodes are evaluated once); MemoHits counts the reuses, the
	// node's consumers beyond the first.
	Calls    int64 `json:"calls"`
	MemoHits int64 `json:"memo_hits,omitempty"`
	OpRecord
}

// OpRecord is the record the executor loop writes once per operator, and
// all a pooled frame holds per instruction: RollUp sums the records into
// the profile, and a collected run copies them into OpStats. For
// operators evaluated morsel-wise, Busy sums the workers' morsel times
// (it exceeds Wall on a multicore pool) and Workers carries the split.
type OpRecord struct {
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// Cells is rows×columns materialized for the node's output table —
	// the quantity the engine's memory cutoff charges.
	Cells int64 `json:"cells"`
	// Wall is coordinator wall-clock time spent evaluating the node.
	Wall time.Duration `json:"wall_ns"`
	// Busy, Morsels and Workers are only set for morsel-parallel
	// evaluations: summed per-worker busy time, morsel task count, and
	// the per-worker split.
	Busy    time.Duration `json:"busy_ns,omitempty"`
	Morsels int64         `json:"morsels,omitempty"`
	Workers []WorkerStats `json:"workers,omitempty"`
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
	// Degraded and QueueWait record the resource governor's admission
	// decision for this run: whether execution was downgraded (parallel
	// plan forced serial under pressure) and how long the query waited
	// for an admission slot. Zero without a governor.
	Degraded  bool          `json:"degraded,omitempty"`
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
// Duration sums max(Wall, Busy) over them, so under parallel execution
// it accounts for the work performed, not the wall clock.
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
		e.Duration += max(ops[i].Wall, ops[i].Busy)
		e.Ops++
		e.Rows += int(ops[i].RowsOut)
	}
	slices.SortStableFunc(prof, func(a, b ProfileEntry) int { return cmp.Compare(b.Duration, a.Duration) })
	return prof
}
