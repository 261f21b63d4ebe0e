package xdm

import "fmt"

// ColKind identifies the physical representation of a Column.
//
// The engine's tables are the paper's iter|pos|item "BATs"; in Pathfinder's
// MonetDB backend those columns are flat arrays of machine integers and
// OIDs, not tagged unions. Column reproduces that encoding: a homogeneous
// column stores its payload as one flat typed slice (8 bytes per cell for
// the dominant integer and node columns) with a single column-level tag,
// and only genuinely mixed columns fall back to boxed []Item storage
// (~48 bytes per cell plus per-access kind dispatch).
type ColKind uint8

// Column representations.
const (
	// ColItems is the mixed fallback: boxed []Item cells.
	ColItems ColKind = iota
	// ColInt stores xs:integer cells as flat []int64.
	ColInt
	// ColBool stores xs:boolean cells as flat []int64 (0/1), matching the
	// Item.I encoding.
	ColBool
	// ColDouble stores xs:double cells as flat []float64.
	ColDouble
	// ColString stores xs:string cells as flat []string.
	ColString
	// ColUntyped stores xs:untypedAtomic cells as flat []string.
	ColUntyped
	// ColNode stores node references as flat []NodeID.
	ColNode
)

// ForceBoxed, when true, makes every column constructor and builder
// produce the boxed []Item representation regardless of homogeneity. It
// exists only for the differential tests pinning typed-versus-boxed
// result identity (internal/core) and must only be toggled while no
// queries are running.
var ForceBoxed = false

// Column is one table column. The zero value is an empty mixed column.
//
// Ownership: a Column owns its backing slice exclusively. Constructors
// take ownership of the slice they are handed (no defensive copy — do not
// retain or mutate the slice after construction), and the engine's buffer
// pool recycles the backing slice when the column provably dies, so a
// Column must never be constructed as an alias of another Column's
// storage: share the *Column pointer instead.
type Column struct {
	kind  ColKind
	ints  []int64
	fs    []float64
	ss    []string
	ns    []NodeID
	items []Item
}

// IntColumn wraps an owned []int64 as an xs:integer column (see the
// ownership contract on Column: v is adopted, not copied).
func IntColumn(v []int64) *Column {
	if ForceBoxed {
		return boxInts(v, KInteger)
	}
	return &Column{kind: ColInt, ints: v}
}

// BoolColumn wraps an owned []int64 of 0/1 cells as an xs:boolean column.
func BoolColumn(v []int64) *Column {
	if ForceBoxed {
		return boxInts(v, KBoolean)
	}
	return &Column{kind: ColBool, ints: v}
}

// DoubleColumn wraps an owned []float64 as an xs:double column.
func DoubleColumn(v []float64) *Column {
	if ForceBoxed {
		items := GetItems(len(v))
		for i, f := range v {
			items[i] = Item{Kind: KDouble, F: f}
		}
		PutFloats(v)
		return &Column{kind: ColItems, items: items}
	}
	return &Column{kind: ColDouble, fs: v}
}

// StringColumn wraps an owned []string as a string-class column; kind
// selects KString or KUntyped.
func StringColumn(kind Kind, v []string) *Column {
	ck := ColString
	if kind == KUntyped {
		ck = ColUntyped
	}
	if ForceBoxed {
		items := make([]Item, len(v))
		for i, s := range v {
			items[i] = Item{Kind: kind, S: s}
		}
		return &Column{kind: ColItems, items: items}
	}
	return &Column{kind: ck, ss: v}
}

// NodeColumn wraps an owned []NodeID as a node-reference column.
func NodeColumn(v []NodeID) *Column {
	if ForceBoxed {
		items := GetItems(len(v))
		for i, id := range v {
			items[i] = Item{Kind: KNode, N: id}
		}
		PutNodes(v)
		return &Column{kind: ColItems, items: items}
	}
	return &Column{kind: ColNode, ns: v}
}

// ItemColumn wraps an owned []Item as a mixed column without inspecting
// the cells.
func ItemColumn(v []Item) *Column { return &Column{kind: ColItems, items: v} }

// FromItemsOwned adopts an owned []Item, converting it to the typed
// representation when every cell has the same kind (the boxed buffer is
// then returned to the pool). It is the bridge for kernels that must
// build into a []Item (the boxed row loops of the map and binop
// operators) but still want typed output columns.
func FromItemsOwned(v []Item) *Column {
	if ForceBoxed || len(v) == 0 {
		return &Column{kind: ColItems, items: v}
	}
	k := v[0].Kind
	for _, it := range v[1:] {
		if it.Kind != k {
			return &Column{kind: ColItems, items: v}
		}
	}
	var c *Column
	switch k {
	case KInteger, KBoolean:
		ints := GetInts(len(v))
		for i, it := range v {
			ints[i] = it.I
		}
		if k == KInteger {
			c = &Column{kind: ColInt, ints: ints}
		} else {
			c = &Column{kind: ColBool, ints: ints}
		}
	case KDouble:
		fs := GetFloats(len(v))
		for i, it := range v {
			fs[i] = it.F
		}
		c = &Column{kind: ColDouble, fs: fs}
	case KNode:
		ns := GetNodes(len(v))
		for i, it := range v {
			ns[i] = it.N
		}
		c = &Column{kind: ColNode, ns: ns}
	case KString, KUntyped:
		ss := make([]string, len(v))
		for i, it := range v {
			ss[i] = it.S
		}
		ck := ColString
		if k == KUntyped {
			ck = ColUntyped
		}
		c = &Column{kind: ck, ss: ss}
	default:
		return &Column{kind: ColItems, items: v}
	}
	PutItems(v)
	return c
}

func boxInts(v []int64, k Kind) *Column {
	items := GetItems(len(v))
	for i, n := range v {
		items[i] = Item{Kind: k, I: n}
	}
	PutInts(v)
	return &Column{kind: ColItems, items: items}
}

// Kind returns the column's physical representation.
func (c *Column) Kind() ColKind { return c.kind }

// Len returns the number of cells.
func (c *Column) Len() int {
	switch c.kind {
	case ColInt, ColBool:
		return len(c.ints)
	case ColDouble:
		return len(c.fs)
	case ColString, ColUntyped:
		return len(c.ss)
	case ColNode:
		return len(c.ns)
	default:
		return len(c.items)
	}
}

// Get boxes cell i as an Item.
func (c *Column) Get(i int) Item {
	switch c.kind {
	case ColInt:
		return Item{Kind: KInteger, I: c.ints[i]}
	case ColBool:
		return Item{Kind: KBoolean, I: c.ints[i]}
	case ColDouble:
		return Item{Kind: KDouble, F: c.fs[i]}
	case ColString:
		return Item{Kind: KString, S: c.ss[i]}
	case ColUntyped:
		return Item{Kind: KUntyped, S: c.ss[i]}
	case ColNode:
		return Item{Kind: KNode, N: c.ns[i]}
	default:
		return c.items[i]
	}
}

// Ints returns the flat integer cells when the column is ColInt.
func (c *Column) Ints() ([]int64, bool) {
	if c.kind == ColInt {
		return c.ints, true
	}
	return nil, false
}

// Bools returns the flat 0/1 cells when the column is ColBool.
func (c *Column) Bools() ([]int64, bool) {
	if c.kind == ColBool {
		return c.ints, true
	}
	return nil, false
}

// Floats returns the flat double cells when the column is ColDouble.
func (c *Column) Floats() ([]float64, bool) {
	if c.kind == ColDouble {
		return c.fs, true
	}
	return nil, false
}

// Strings returns the flat string cells (and their item Kind) when the
// column is string-class.
func (c *Column) Strings() ([]string, Kind, bool) {
	switch c.kind {
	case ColString:
		return c.ss, KString, true
	case ColUntyped:
		return c.ss, KUntyped, true
	}
	return nil, KString, false
}

// Nodes returns the flat node references when the column is ColNode.
func (c *Column) Nodes() ([]NodeID, bool) {
	if c.kind == ColNode {
		return c.ns, true
	}
	return nil, false
}

// RawItems returns the boxed cells when the column is the mixed fallback.
func (c *Column) RawItems() ([]Item, bool) {
	if c.kind == ColItems {
		return c.items, true
	}
	return nil, false
}

// AppendTo appends every cell, boxed, to dst and returns the extended
// slice.
func (c *Column) AppendTo(dst []Item) []Item {
	switch c.kind {
	case ColInt:
		for _, v := range c.ints {
			dst = append(dst, Item{Kind: KInteger, I: v})
		}
	case ColBool:
		for _, v := range c.ints {
			dst = append(dst, Item{Kind: KBoolean, I: v})
		}
	case ColDouble:
		for _, f := range c.fs {
			dst = append(dst, Item{Kind: KDouble, F: f})
		}
	case ColString:
		for _, s := range c.ss {
			dst = append(dst, Item{Kind: KString, S: s})
		}
	case ColUntyped:
		for _, s := range c.ss {
			dst = append(dst, Item{Kind: KUntyped, S: s})
		}
	case ColNode:
		for _, id := range c.ns {
			dst = append(dst, Item{Kind: KNode, N: id})
		}
	default:
		dst = append(dst, c.items...)
	}
	return dst
}

// Gather returns a new column with cell j equal to cell perm[j] — the
// typed projection/permutation kernel (a plain copy loop per
// representation, no per-cell boxing).
func (c *Column) Gather(perm []int32) *Column {
	out, _ := c.GatherChunked(perm, 0, nil)
	return out
}

// GatherChunked is Gather with a cooperative poll every chunk cells
// (chunk <= 0 disables polling) so multi-million-row materializations
// stay responsive to cancellation.
func (c *Column) GatherChunked(perm []int32, chunk int, poll func() error) (*Column, error) {
	n := len(perm)
	poll2 := func(i int) error {
		if poll != nil && chunk > 0 && i&(chunk-1) == 0 {
			return poll()
		}
		return nil
	}
	switch c.kind {
	case ColInt, ColBool:
		out := GetInts(n)
		for i, p := range perm {
			if err := poll2(i); err != nil {
				PutInts(out)
				return nil, err
			}
			out[i] = c.ints[p]
		}
		return &Column{kind: c.kind, ints: out}, nil
	case ColDouble:
		out := GetFloats(n)
		for i, p := range perm {
			if err := poll2(i); err != nil {
				PutFloats(out)
				return nil, err
			}
			out[i] = c.fs[p]
		}
		return &Column{kind: ColDouble, fs: out}, nil
	case ColString, ColUntyped:
		out := make([]string, n)
		for i, p := range perm {
			if err := poll2(i); err != nil {
				return nil, err
			}
			out[i] = c.ss[p]
		}
		return &Column{kind: c.kind, ss: out}, nil
	case ColNode:
		out := GetNodes(n)
		for i, p := range perm {
			if err := poll2(i); err != nil {
				PutNodes(out)
				return nil, err
			}
			out[i] = c.ns[p]
		}
		return &Column{kind: ColNode, ns: out}, nil
	default:
		out := GetItems(n)
		for i, p := range perm {
			if err := poll2(i); err != nil {
				PutItems(out)
				return nil, err
			}
			out[i] = c.items[p]
		}
		return &Column{kind: ColItems, items: out}, nil
	}
}

// RepeatOf returns a column of n copies of c's cell i — the typed kernel
// behind singleton cross products.
func RepeatOf(c *Column, i, n int) *Column {
	switch c.kind {
	case ColInt, ColBool:
		out := GetInts(n)
		v := c.ints[i]
		for j := range out {
			out[j] = v
		}
		return &Column{kind: c.kind, ints: out}
	case ColDouble:
		out := GetFloats(n)
		v := c.fs[i]
		for j := range out {
			out[j] = v
		}
		return &Column{kind: ColDouble, fs: out}
	case ColString, ColUntyped:
		out := make([]string, n)
		v := c.ss[i]
		for j := range out {
			out[j] = v
		}
		return &Column{kind: c.kind, ss: out}
	case ColNode:
		out := GetNodes(n)
		v := c.ns[i]
		for j := range out {
			out[j] = v
		}
		return &Column{kind: ColNode, ns: out}
	default:
		out := GetItems(n)
		v := c.items[i]
		for j := range out {
			out[j] = v
		}
		return &Column{kind: ColItems, items: out}
	}
}

// String renders a short diagnostic description.
func (c *Column) String() string {
	names := [...]string{"items", "int", "bool", "double", "string", "untyped", "node"}
	return fmt.Sprintf("column[%s]×%d", names[c.kind], c.Len())
}

// ColumnBuilder accumulates cells into a Column, starting in the typed
// representation of the first cell and demoting to the boxed fallback on
// the first kind mismatch. The zero value is ready to use.
type ColumnBuilder struct {
	col     Column
	started bool
}

// Append appends any cell, demoting the builder to the boxed fallback
// when the cell's kind does not match the column so far.
func (b *ColumnBuilder) Append(it Item) {
	if !b.started {
		b.start(kindToCol(it.Kind))
	}
	switch b.col.kind {
	case ColInt:
		if it.Kind == KInteger {
			b.col.ints = append(b.col.ints, it.I)
			return
		}
	case ColBool:
		if it.Kind == KBoolean {
			b.col.ints = append(b.col.ints, it.I)
			return
		}
	case ColDouble:
		if it.Kind == KDouble {
			b.col.fs = append(b.col.fs, it.F)
			return
		}
	case ColString:
		if it.Kind == KString {
			b.col.ss = append(b.col.ss, it.S)
			return
		}
	case ColUntyped:
		if it.Kind == KUntyped {
			b.col.ss = append(b.col.ss, it.S)
			return
		}
	case ColNode:
		if it.Kind == KNode {
			b.col.ns = append(b.col.ns, it.N)
			return
		}
	default:
		b.col.items = append(b.col.items, it)
		return
	}
	b.demote()
	b.col.items = append(b.col.items, it)
}

// AppendColumn appends every cell of c — a typed bulk copy when the
// representations match, cell-wise otherwise. An empty column before the
// builder has started does not fix the kind, so a union of an empty left
// arm with a typed right arm stays typed.
func (b *ColumnBuilder) AppendColumn(c *Column) {
	if !b.started {
		if c.Len() == 0 {
			return
		}
		b.start(c.kind)
	}
	if b.col.kind == c.kind {
		switch c.kind {
		case ColInt, ColBool:
			b.col.ints = append(b.col.ints, c.ints...)
		case ColDouble:
			b.col.fs = append(b.col.fs, c.fs...)
		case ColString, ColUntyped:
			b.col.ss = append(b.col.ss, c.ss...)
		case ColNode:
			b.col.ns = append(b.col.ns, c.ns...)
		default:
			b.col.items = append(b.col.items, c.items...)
		}
		return
	}
	n := c.Len()
	for i := 0; i < n; i++ {
		b.Append(c.Get(i))
	}
}

// Finish returns the built column; the builder must not be reused.
func (b *ColumnBuilder) Finish() *Column {
	c := b.col
	b.col = Column{}
	return &c
}

func (b *ColumnBuilder) start(k ColKind) {
	b.started = true
	if ForceBoxed {
		k = ColItems
	}
	b.col.kind = k
}

// demote converts the builder's typed cells to the boxed representation.
func (b *ColumnBuilder) demote() {
	items := (&b.col).AppendTo(nil)
	switch b.col.kind {
	case ColInt, ColBool:
		PutInts(b.col.ints)
	case ColDouble:
		PutFloats(b.col.fs)
	case ColNode:
		PutNodes(b.col.ns)
	}
	b.col = Column{kind: ColItems, items: items}
}

func kindToCol(k Kind) ColKind {
	switch k {
	case KInteger:
		return ColInt
	case KBoolean:
		return ColBool
	case KDouble:
		return ColDouble
	case KString:
		return ColString
	case KUntyped:
		return ColUntyped
	case KNode:
		return ColNode
	default:
		return ColItems // KNull and anything internal stay boxed
	}
}
