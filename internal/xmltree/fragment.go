// Package xmltree stores XML as order-encoded fragments: each node is
// identified by its preorder rank and carries its subtree size and level
// (Figure 5 of the eXrQuy paper). The encoding makes document order a
// property of the data (integer ranks) rather than of runtime state, which
// is what allows the relational pipeline to trade sorts (%) for arbitrary
// numbering (#) wherever order is not observed. The pre/size/level triple
// also supports the staircase-join evaluation of XPath axes.
//
// Attributes are materialized as nodes in the preorder immediately after
// their owner element (at level owner+1); the child and descendant axes
// skip them, the attribute axis selects exactly them.
package xmltree

import (
	"strings"
	"sync/atomic"
)

// NodeKind classifies nodes within a fragment.
type NodeKind uint8

// Node kinds. KindDoc only ever appears at preorder rank 0 of a parsed
// document; constructed fragments are rooted in their element.
const (
	KindDoc NodeKind = iota
	KindElem
	KindAttr
	KindText
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindDoc:
		return "doc"
	case KindElem:
		return "elem"
	case KindAttr:
		return "attr"
	case KindText:
		return "text"
	default:
		return "?"
	}
}

// Fragment is one order-encoded XML tree (a parsed document or a fragment
// produced by an element constructor). All per-node data lives in parallel
// slices indexed by preorder rank; Size counts all nodes in the subtree
// excluding the node itself (so the subtree of v spans preorder ranks
// [v, v+Size[v]]).
type Fragment struct {
	ID     uint32
	Name_  string // document URI or a synthetic label; informational
	Kind   []NodeKind
	Name   []uint32 // element/attribute name as an index into Names ("" for text/doc)
	Names  []string // the name dictionary; the fragments of one Slab share it
	Value  []string // text/attribute value (empty otherwise)
	Size   []int32
	Level  []int32
	Parent []int32 // preorder rank of the parent; -1 at the root

	elems atomic.Pointer[elemPostings] // lazily built, see ElemPostings
}

// Len returns the number of nodes in the fragment.
func (f *Fragment) Len() int { return len(f.Kind) }

// Root returns the preorder rank of the fragment root (always 0).
func (f *Fragment) Root() int32 { return 0 }

// InSubtree reports whether node d lies in the subtree rooted at a
// (including a itself).
func (f *Fragment) InSubtree(a, d int32) bool {
	return d >= a && d <= a+f.Size[a]
}

// Children returns the preorder ranks of the element/text children of v in
// document order (attributes excluded).
func (f *Fragment) Children(v int32) []int32 {
	var out []int32
	end := v + f.Size[v]
	lvl := f.Level[v] + 1
	for c := v + 1; c <= end; c += f.Size[c] + 1 {
		if f.Level[c] == lvl && f.Kind[c] != KindAttr {
			out = append(out, c)
		}
	}
	return out
}

// Attributes returns the preorder ranks of the attribute nodes of v in
// document order.
func (f *Fragment) Attributes(v int32) []int32 {
	var out []int32
	end := v + f.Size[v]
	for c := v + 1; c <= end && f.Kind[c] == KindAttr && f.Level[c] == f.Level[v]+1; c++ {
		out = append(out, c)
	}
	return out
}

// Descendants returns all element/text descendants of v (excluding v and
// excluding attribute nodes) in document order.
func (f *Fragment) Descendants(v int32) []int32 {
	var out []int32
	end := v + f.Size[v]
	for c := v + 1; c <= end; c++ {
		if f.Kind[c] != KindAttr {
			out = append(out, c)
		}
	}
	return out
}

// StringValue returns the XDM string value of node v: the value itself for
// text and attribute nodes, the concatenation of all descendant text node
// values for elements and document nodes.
func (f *Fragment) StringValue(v int32) string {
	switch f.Kind[v] {
	case KindText, KindAttr:
		return f.Value[v]
	default:
		// One text descendant is the value itself; more are joined into
		// one buffer sized up front.
		end := v + f.Size[v]
		var one string
		n, texts := 0, 0
		for c := v + 1; c <= end; c++ {
			if f.Kind[c] == KindText {
				one, n, texts = f.Value[c], n+len(f.Value[c]), texts+1
			}
		}
		if texts < 2 {
			return one
		}
		var sb strings.Builder
		sb.Grow(n)
		for c := v + 1; c <= end; c++ {
			if f.Kind[c] == KindText {
				sb.WriteString(f.Value[c])
			}
		}
		return sb.String()
	}
}

// NodeName returns the name of an element or attribute node and "" for
// text and document nodes.
func (f *Fragment) NodeName(v int32) string { return f.Names[f.Name[v]] }

// NameID returns name's index in f's dictionary; ok is false when no
// node of f carries the name. Dictionaries hold the few distinct names
// of a document or constructor, so a scan is all a lookup needs.
func (f *Fragment) NameID(name string) (id uint32, ok bool) {
	for i, n := range f.Names {
		if n == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// SameDict reports whether two name dictionaries are one: the same array
// and length, so an id resolved in one names the same string in the
// other.
func SameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Stats summarizes a fragment for diagnostics.
type Stats struct {
	Nodes    int
	Elements int
	Attrs    int
	Texts    int
	MaxLevel int32
}

// ComputeStats walks the fragment and tallies node kinds.
func (f *Fragment) ComputeStats() Stats {
	var s Stats
	s.Nodes = f.Len()
	for i := range f.Kind {
		switch f.Kind[i] {
		case KindElem:
			s.Elements++
		case KindAttr:
			s.Attrs++
		case KindText:
			s.Texts++
		}
		if f.Level[i] > s.MaxLevel {
			s.MaxLevel = f.Level[i]
		}
	}
	return s
}
