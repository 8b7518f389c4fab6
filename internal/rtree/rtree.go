// Package rtree implements an R-tree spatial index with Sort-Tile-Recursive
// (STR) bulk loading, following Leutenegger, Lopez & Edgington (ICDE 1997) —
// the structure the paper cites for curvilinear MRC spacing/width queries.
//
// The tree indexes opaque items by bounding rectangle and is built in one
// STR pack; it answers window (intersection) and segment queries.
package rtree

import (
	"math"
	"sort"

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
	n := len(items)
	sorted := make([]Item, n)
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Bounds().Center().X < sorted[j].Bounds().Center().X
	})
	leafCount := (n + MaxEntries - 1) / MaxEntries
	slabs := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlab := slabs * MaxEntries

	var leaves []*node
	for s := 0; s < n; s += perSlab {
		end := min(s+perSlab, n)
		slab := sorted[s:end]
		sort.SliceStable(slab, func(i, j int) bool {
			return slab[i].Bounds().Center().Y < slab[j].Bounds().Center().Y
		})
		for i := 0; i < len(slab); i += MaxEntries {
			j := min(i+MaxEntries, len(slab))
			leaf := &node{items: append([]Item(nil), slab[i:j]...), rect: geom.EmptyRect()}
			for _, it := range leaf.items {
				leaf.rect = leaf.rect.Union(it.Bounds())
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packUpward(level []*node) *node {
	for len(level) > 1 {
		sort.SliceStable(level, func(i, j int) bool {
			return level[i].rect.Center().X < level[j].rect.Center().X
		})
		groups := (len(level) + MaxEntries - 1) / MaxEntries
		slabs := int(math.Ceil(math.Sqrt(float64(groups))))
		perSlab := slabs * MaxEntries
		var next []*node
		for s := 0; s < len(level); s += perSlab {
			end := min(s+perSlab, len(level))
			slab := level[s:end]
			sort.SliceStable(slab, func(i, j int) bool {
				return slab[i].rect.Center().Y < slab[j].rect.Center().Y
			})
			for i := 0; i < len(slab); i += MaxEntries {
				j := min(i+MaxEntries, len(slab))
				parent := &node{children: append([]*node(nil), slab[i:j]...), rect: geom.EmptyRect()}
				for _, c := range parent.children {
					parent.rect = parent.rect.Union(c.rect)
				}
				next = append(next, parent)
			}
		}
		level = next
	}
	return level[0]
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
