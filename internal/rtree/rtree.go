// Package rtree implements an R-tree spatial index with Sort-Tile-Recursive
// (STR) bulk loading, following Leutenegger, Lopez & Edgington (ICDE 1997) —
// the structure the paper cites for curvilinear MRC spacing/width queries.
//
// The tree indexes opaque items by bounding rectangle and is built in one
// STR pack; it answers window (intersection) and segment queries.
package rtree

import (
	"math"
	"slices"

	"cardopc/internal/geom"
)

// MaxEntries is the node fan-out M. Chosen small because mask clips hold
// hundreds, not millions, of shapes; re-tune if indexing full reticles.
const MaxEntries = 8

// Item is an indexed spatial object.
type Item interface {
	// Bounds returns the item's bounding rectangle.
	Bounds() geom.Rect
}

type node struct {
	rect     geom.Rect
	children []*node // nil for leaves
	items    []Item  // nil for internal nodes
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is an STR-packed R-tree over Items. The zero value is an empty tree.
// A built tree is never mutated, so concurrent readers are safe.
type Tree struct {
	root *node
}

// NewSTR bulk-loads a tree from items using Sort-Tile-Recursive packing:
// sort by centre x, partition into vertical slabs of ~√(n/M) tiles, sort
// each slab by centre y, and pack runs of M items per leaf; repeat upward.
func NewSTR(items []Item) *Tree {
	t := &Tree{}
	if len(items) == 0 {
		return t
	}
	leaves := packLeaves(items)
	t.root = packUpward(leaves)
	return t
}

func packLeaves(items []Item) []*node {
	centres := make([]geom.Pt, len(items))
	for i, it := range items {
		centres[i] = it.Bounds().Center()
	}
	leaves := make([]*node, 0, runsOf(len(items)))
	tile(centres, func(run []int32) {
		leaf := &node{items: make([]Item, len(run)), rect: geom.EmptyRect()}
		for k, i := range run {
			leaf.items[k] = items[i]
			leaf.rect = leaf.rect.Union(items[i].Bounds())
		}
		leaves = append(leaves, leaf)
	})
	return leaves
}

func packUpward(level []*node) *node {
	for len(level) > 1 {
		centres := make([]geom.Pt, len(level))
		for i, n := range level {
			centres[i] = n.rect.Center()
		}
		next := make([]*node, 0, runsOf(len(level)))
		tile(centres, func(run []int32) {
			parent := &node{children: make([]*node, len(run)), rect: geom.EmptyRect()}
			for k, i := range run {
				parent.children[k] = level[i]
				parent.rect = parent.rect.Union(level[i].rect)
			}
			next = append(next, parent)
		})
		level = next
	}
	return level[0]
}

// tile orders one STR level, given its entries' rectangle centres: a
// stable sort by centre x, vertical slabs of ⌈√runs⌉·MaxEntries (runs
// being how many runs of MaxEntries the level fills), a stable sort of
// each slab by centre y; then it calls pack with the indices of each run
// of up to MaxEntries in that order. A stable sort's order is unique, so
// the packing does not depend on the sort's algorithm.
func tile(centres []geom.Pt, pack func(run []int32)) {
	order := make([]int32, len(centres))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return compare(centres[a].X, centres[b].X) })
	perSlab := int(math.Ceil(math.Sqrt(float64(runsOf(len(order)))))) * MaxEntries
	for s := 0; s < len(order); s += perSlab {
		slab := order[s:min(s+perSlab, len(order))]
		slices.SortStableFunc(slab, func(a, b int32) int { return compare(centres[a].Y, centres[b].Y) })
		for i := 0; i < len(slab); i += MaxEntries {
			pack(slab[i:min(i+MaxEntries, len(slab))])
		}
	}
}

// runsOf is how many runs of MaxEntries n entries fill.
func runsOf(n int) int { return (n + MaxEntries - 1) / MaxEntries }

// compare orders a before b exactly when a < b, as a less function on <
// does: unlike cmp.Compare, it ranks a NaN level with everything.
func compare(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// Search calls fn for every item whose bounds intersect window. Returning
// false from fn stops the search early.
func (t *Tree) Search(window geom.Rect, fn func(Item) bool) {
	if t.root != nil {
		t.root.search(window, fn)
	}
}

func (n *node) search(window geom.Rect, fn func(Item) bool) bool {
	if !n.rect.Intersects(window) {
		return true
	}
	if n.leaf() {
		for _, it := range n.items {
			if it.Bounds().Intersects(window) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.search(window, fn) {
			return false
		}
	}
	return true
}

// SearchSeg calls fn for every item whose bounds intersect the bounding box
// of segment s. Exact segment-vs-geometry tests are the caller's job (the
// tree only culls by rectangle).
func (t *Tree) SearchSeg(s geom.Seg, fn func(Item) bool) {
	t.Search(s.Bounds(), fn)
}
