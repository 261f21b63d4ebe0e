package opt

import "repro/internal/algebra"

// Parallel region analysis.
//
// The paper's order-indifference machinery proves, plan region by plan
// region, that row order is disposable data: wherever the optimizer may
// emit # instead of the blocking ρ, no consumer observes the physical
// order of the rows flowing by. This pass cashes that proof in for
// parallelism: a node whose output row order is provably unobservable
// ("order-dead") may be evaluated partition-wise — any interleaving of
// its morsels is indistinguishable — while order-sensitive regions must
// stay on the serial path.
//
// Order-liveness is inferred top-down (consumers before producers) on a
// three-level lattice, reusing the column dependency analysis of §4.1
// (inferRequired) and the §7 property inference (inferProps):
//
//	ordDead  — no consumer observes the node's row order at all;
//	ordGroup — only the iteration-group occurrence order is observed
//	           (aggregates emit one row per group, in first-occurrence
//	           order of the groups; the rows inside a group may arrive
//	           in any order);
//	ordFull  — the complete row order is observable.
//
// The per-operator demand rules:
//
//   - the root's physical order is dead when its pos column is a key:
//     serialization sorts by pos values, so unique values fully determine
//     the output sequence; otherwise the stable sort leaks physical order
//     through tied pos values and the root demands full order;
//   - ρ with tie-free sort criteria (some criterion is a key column) is
//     an order barrier: its output — values and order — is a pure
//     function of the input multiset, so the input order is dead; with
//     possible ties, the stable sort leaks input order into the assigned
//     ranks, full demand when the rank is consumed, pass-through when it
//     is dead order bookkeeping;
//   - # stamps arbitrary ids: the compiler and optimizer emit # exactly
//     where they proved any realized order admissible, so the stamped
//     values — even when later consumed as sort criteria, e.g. the final
//     serialization ordering by a #-produced pos — never pin the input
//     order; # merely passes its consumers' row-order demand through;
//   - count and EBV aggregates are value-insensitive to intra-group
//     order: they demand at most group-occurrence order. The
//     order-sensitive aggregates (fn:string-join via pos; sum/avg, whose
//     float accumulation is not reassociation-safe; max/min, whose
//     representative among equal-comparing values is the first seen)
//     demand full input order;
//   - the step operator regroups rows itself: its output is per-group
//     document order (a function of the input value multiset), so it too
//     demands at most group-occurrence order from its input;
//   - node constructors consume their input order outright: constructed
//     fragments receive identities (and relative document order) in row
//     order;
//   - distinct passes demand through when its key covers the whole
//     schema (the surviving multiset is then order-independent); with a
//     partial key, which row survives per key depends on the full order;
//   - every other operator passes its consumers' demand through.

// Order-liveness levels.
const (
	ordDead  = 0
	ordGroup = 1
	ordFull  = 2
)

// MarkParallel computes order-liveness for every node of the DAG and
// sets algebra.Node.Par on the steps and equi-joins whose full row order
// is dead (at most the group structure is observed — which both morsel
// kernels preserve by merging partitions in deterministic serial-scan
// order). It returns the number of marked nodes.
func MarkParallel(root *algebra.Node) int {
	a := inferRequired(root)
	a.inferProps()
	nodes := a.nodes                // topological, inputs first
	live := make([]int, len(nodes)) // indexed like nodes

	// Seed: serialization sorts the root by pos value; a key pos makes
	// the root's physical order immaterial.
	if !a.prop(root, "pos").unique {
		live[len(nodes)-1] = ordFull
	}

	for i := len(nodes) - 1; i >= 0; i-- {
		c := nodes[i]
		L := live[i]
		demand := func(idx, lvl int) {
			if in := a.pos[c.Ins[idx].ID]; lvl > live[in] {
				live[in] = lvl
			}
		}
		switch c.Kind {
		case algebra.OpLit, algebra.OpDoc:
			// no inputs

		case algebra.OpSemi, algebra.OpDiff, algebra.OpCheckCard:
			// The filter/loop side contributes values only.
			demand(0, L)
			if len(c.Ins) == 2 {
				demand(1, ordDead)
			}

		case algebra.OpElem:
			for k := range c.Ins {
				demand(k, ordFull)
			}

		case algebra.OpRowNum:
			switch {
			case rowNumTieFree(c, a):
				demand(0, ordDead)
			case a.req(c).has(c.Res):
				demand(0, ordFull)
			default:
				// Dead order bookkeeping over a tied sort: the stable sort
				// leaks input order into output order, nothing else.
				demand(0, L)
			}

		case algebra.OpRowID:
			demand(0, L)

		case algebra.OpAggr:
			switch c.AFn {
			case algebra.AggrCount, algebra.AggrEbv:
				demand(0, minLvl(L, ordGroup))
			default:
				demand(0, ordFull)
			}

		case algebra.OpStep:
			// Output order is per-group document order: a function of the
			// input multiset plus the groups' first-occurrence order.
			demand(0, minLvl(L, ordGroup))

		case algebra.OpDistinct:
			if coversSchema(c.Cols, c.Ins[0].Schema()) {
				demand(0, L)
			} else {
				demand(0, ordFull)
			}

		default:
			// Project, select, join, cross, union, binop, map1, range:
			// output order is a deterministic function of input order; the
			// consumers' demand passes through.
			for idx := range c.Ins {
				demand(idx, L)
			}
		}
	}

	marked := 0
	for i, n := range nodes {
		n.Par = live[i] <= ordGroup && parallelizable(n)
		if n.Par {
			marked++
		}
	}
	return marked
}

func minLvl(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// coversSchema reports whether the key columns include every schema
// column, i.e. a distinct over them is insensitive to row order.
func coversSchema(key, schema []string) bool {
	set := make(map[string]bool, len(key))
	for _, k := range key {
		set[k] = true
	}
	for _, s := range schema {
		if !set[s] {
			return false
		}
	}
	return true
}

// rowNumTieFree reports whether a ρ's stable sort provably has no ties:
// some sort criterion is a key column, so no two distinct rows compare
// equal on the full criteria list.
func rowNumTieFree(n *algebra.Node, a *analysis) bool {
	for _, s := range n.Sort {
		if a.prop(n.Ins[0], s.Col).unique {
			return true
		}
	}
	return false
}

// parallelizable reports whether the morsel pool (internal/parallel) has
// a kernel for n: the staircase step and the equi-join, the two operators
// that partition. Every other operator runs serially whatever its
// order-liveness, so a [par] mark means the pool will take the node.
func parallelizable(n *algebra.Node) bool {
	return n.Kind == algebra.OpStep || (n.Kind == algebra.OpJoin && n.Mode == algebra.JoinEqui)
}
