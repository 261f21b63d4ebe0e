// Package engine evaluates algebra plan DAGs over in-memory columnar
// tables. It plays the role MonetDB plays for Pathfinder: an inherently
// unordered, column-oriented runtime in which
//
//   - ρ (rownum) really is a blocking sort (the table is physically
//     reordered and densely renumbered per group), while
//   - # (rowid) is a single column stamp — "negligible cost or even for
//     free" in the paper's words.
//
// The package holds the operator kernels and the per-execution budget
// (Exec); the loop that drives them over a plan — each shared DAG node
// evaluated exactly once, mirroring common subexpression reuse in
// MonetDB BAT programs — is internal/vm. That loop times every operator
// evaluation into one record per operator, which it rolls up by the
// operator's origin label into the Table 2 profile.
//
// Columns are xdm.Column values: homogeneous columns (the common case —
// iter/pos/numbering columns are always integers, step outputs are always
// nodes) are flat typed slices, mixed columns fall back to boxed []Item
// cells. Tables only ever share column storage through the *Column
// pointer, never by rewrapping a buffer, which is what lets the driver
// recycle dead intermediates' buffers by counting column references.
package engine

import (
	"fmt"

	"repro/internal/xdm"
)

// Table is a column-major relation: Data[c] holds column c, row-aligned
// across columns. Tables are immutable after construction; projections
// alias *Column pointers.
type Table struct {
	Cols []string
	Data []*xdm.Column
}

// NewTable builds a table over the given column names with empty data.
func NewTable(cols []string) *Table {
	return &Table{Cols: cols, Data: make([]*xdm.Column, len(cols))}
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Data) == 0 || t.Data[0] == nil {
		return 0
	}
	return t.Data[0].Len()
}

// Col returns the column by name; it panics on unknown columns (schema
// errors are compiler bugs, caught by the algebra layer). Plan tables
// are narrow (at most 7 columns across the XMark plans), so a linear
// scan beats any index.
func (t *Table) Col(name string) *xdm.Column {
	for i, c := range t.Cols {
		if c == name {
			return t.Data[i]
		}
	}
	panic(fmt.Sprintf("engine: unknown column %q in %v", name, t.Cols))
}

// Filter returns a new table holding the rows at the given indices, in
// that order: a selection, or a permutation when keep covers every row.
func (t *Table) Filter(keep []int32) *Table {
	out := NewTable(t.Cols)
	for c := range t.Data {
		out.Data[c] = t.Data[c].Gather(keep)
	}
	return out
}

// WithColumn returns a table extended by one column (aliasing existing
// columns).
func (t *Table) WithColumn(name string, col *xdm.Column) *Table {
	return &Table{
		Cols: append(append([]string{}, t.Cols...), name),
		Data: append(append([]*xdm.Column{}, t.Data...), col),
	}
}

// iterKey converts an iteration id item to its int64 representation;
// iteration, position and numbering columns are always integers.
func iterKey(it xdm.Item) int64 {
	if it.Kind != xdm.KInteger {
		panic(fmt.Sprintf("engine: non-integer key item %v", it.Kind))
	}
	return it.I
}

// iterInts returns a column's cells as raw int64 iteration/position keys.
// For a flat integer column this is the backing slice itself (read-only
// for the caller); the boxed fallback validates and materializes. A
// non-integer column panics exactly like iterKey on its first cell, and —
// also like the old per-item path — an empty column never panics.
func iterInts(c *xdm.Column) []int64 {
	if v, ok := c.Ints(); ok {
		return v
	}
	if items, ok := c.RawItems(); ok {
		out := make([]int64, len(items))
		for i, it := range items {
			out[i] = iterKey(it)
		}
		return out
	}
	if c.Len() == 0 {
		return nil
	}
	iterKey(c.Get(0)) // panics with the standard non-integer key message
	panic("unreachable")
}
