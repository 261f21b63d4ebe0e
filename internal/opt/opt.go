// Package opt implements the plan rewrites of §4.1 and §7 of the paper:
//
//   - column dependency analysis — the top-down inference of strictly
//     required input columns (Figure 8), followed by pruning of operators
//     whose outputs nobody needs (dead # chains, order-establishing ρ
//     whose rank is never consumed, literal cross products);
//   - rownum relaxation (§7 wrap-up) — property inference (constant
//     columns, arbitrary-unique "key" columns) that degenerates residual
//     ρ operators into free # stamps;
//   - step merging — ⤋descendant-or-self::node() directly below ⤋child::nt
//     fuses into ⤋descendant::nt (the source of the paper's 10,000 %
//     outliers for XMark Q6/Q7);
//   - disjoint-union simplification — distinct over the union of steps
//     with provably disjoint results disappears, completing the paper's
//     '|' → ',' example (Figure 10).
//
// Every rewrite is individually switchable for the ablation benchmarks.
//
// Optimize runs rounds to a fixed point. A round is one inference and one
// bottom-up rewrite walk over a shared topological order of the DAG
// (rewrite, in rewrites.go): required columns and column properties live
// in two flat tables with one slot per schema column per node (analysis,
// in analysis.go) — a node's requirements and properties only mention
// its own schema's columns — and pruning, ρ relaxation, step merging and
// distinct removal all fire as peepholes on the node being rebuilt. New
// nodes are interned by the algebra.Builder under a hand-appended,
// length-prefixed byte key, so a rebuild that changes nothing costs one
// key and one map lookup.
package opt

import "repro/internal/algebra"

// Options enables individual rewrites.
type Options struct {
	ColumnAnalysis   bool // §4.1 column dependency analysis + pruning
	RownumRelax      bool // §7 ρ → # via constant/key property inference
	StepMerge        bool // ⤋d-o-s::node() + ⤋child::nt → ⤋descendant::nt
	DisjointDistinct bool // drop distinct over disjoint step unions
}

// AllOptions enables every rewrite.
func AllOptions() Options {
	return Options{ColumnAnalysis: true, RownumRelax: true, StepMerge: true, DisjointDistinct: true}
}

// Optimize rewrites the DAG rooted at root and returns the new root. The
// rounds iterate to a fixed point: column analysis exposes step-merge
// opportunities (the ρ between two steps disappears first), and merging
// in turn makes more columns dead.
func Optimize(root *algebra.Node, b *algebra.Builder, opts Options) *algebra.Node {
	for i := 0; i < 8; i++ {
		next := rewrite(root, b, opts)
		if next == root {
			break
		}
		root = next
	}
	return root
}

// PlanStats re-exports plan statistics for callers outside the algebra
// package.
func PlanStats(root *algebra.Node) algebra.Stats { return algebra.PlanStats(root) }

// Explain renders a plan as indented text.
func Explain(root *algebra.Node) string { return algebra.Print(root) }

// MarkParallel marks no plan region and returns 0: the executor is
// serial. Pinned by benchmark/; goes with ROADMAP 1(f).
func MarkParallel(*algebra.Node) int { return 0 }
