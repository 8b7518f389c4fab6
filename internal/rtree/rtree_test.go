package rtree

import (
	"math/rand"
	"testing"

	"cardopc/internal/geom"
)

type box struct {
	r  geom.Rect
	id int
}

func (b box) Bounds() geom.Rect { return b.r }

// Len returns the number of indexed items.
func (t *Tree) Len() int {
	n := 0
	t.All(func(Item) bool { n++; return true })
	return n
}

// Bounds returns the bounding rectangle of everything in the tree.
func (t *Tree) Bounds() geom.Rect {
	if t.root == nil {
		return geom.EmptyRect()
	}
	return t.root.rect
}

// All calls fn for every item in the tree.
func (t *Tree) All(fn func(Item) bool) {
	t.Search(t.Bounds(), fn)
}

// Depth returns the height of the tree (0 for empty).
func (t *Tree) Depth() int {
	d := 0
	for n := t.root; n != nil; {
		d++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return d
}

func randBoxes(r *rand.Rand, n int, extent float64) []Item {
	items := make([]Item, n)
	for i := range items {
		x := r.Float64() * extent
		y := r.Float64() * extent
		w := 1 + r.Float64()*20
		h := 1 + r.Float64()*20
		items[i] = box{geom.Rect{Min: geom.P(x, y), Max: geom.P(x+w, y+h)}, i}
	}
	return items
}

// bruteSearch returns ids of boxes intersecting the window.
func bruteSearch(items []Item, w geom.Rect) map[int]bool {
	out := map[int]bool{}
	for _, it := range items {
		if it.Bounds().Intersects(w) {
			out[it.(box).id] = true
		}
	}
	return out
}

func treeSearch(t *Tree, w geom.Rect) map[int]bool {
	out := map[int]bool{}
	t.Search(w, func(it Item) bool {
		out[it.(box).id] = true
		return true
	})
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Depth() != 0 {
		t.Error("empty tree should have zero len/depth")
	}
	if !tr.Bounds().Empty() {
		t.Error("empty tree bounds should be empty")
	}
	tr.Search(geom.Rect{Min: geom.P(0, 0), Max: geom.P(1, 1)}, func(Item) bool {
		t.Error("search on empty tree should not call fn")
		return true
	})
	st := NewSTR(nil)
	if st.Len() != 0 {
		t.Error("NewSTR(nil) should be empty")
	}
}

func TestSTRQueryMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 8, 9, 50, 500} {
		items := randBoxes(r, n, 1000)
		tr := NewSTR(items)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		for q := 0; q < 50; q++ {
			x, y := r.Float64()*1000, r.Float64()*1000
			w := geom.Rect{Min: geom.P(x, y), Max: geom.P(x+50, y+80)}
			if !sameSet(treeSearch(tr, w), bruteSearch(items, w)) {
				t.Fatalf("n=%d query %d: result mismatch", n, q)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr := NewSTR(randBoxes(r, 100, 100))
	visits := 0
	tr.Search(tr.Bounds(), func(Item) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Errorf("early stop visited %d, want 5", visits)
	}
}

func TestSearchSeg(t *testing.T) {
	items := []Item{
		box{geom.Rect{Min: geom.P(0, 0), Max: geom.P(10, 10)}, 0},
		box{geom.Rect{Min: geom.P(30, 30), Max: geom.P(40, 40)}, 1},
	}
	tr := NewSTR(items)
	var hits []int
	tr.SearchSeg(geom.Seg{A: geom.P(5, 5), B: geom.P(8, 8)}, func(it Item) bool {
		hits = append(hits, it.(box).id)
		return true
	})
	if len(hits) != 1 || hits[0] != 0 {
		t.Errorf("SearchSeg hits = %v", hits)
	}
}

func TestDepthGrows(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	small := NewSTR(randBoxes(r, 5, 100))
	big := NewSTR(randBoxes(r, 1000, 100))
	if small.Depth() < 1 {
		t.Error("small tree depth must be >= 1")
	}
	if big.Depth() <= small.Depth() {
		t.Errorf("big depth %d should exceed small depth %d", big.Depth(), small.Depth())
	}
}

func TestBoundsCoverEverything(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	items := randBoxes(r, 123, 300)
	tr := NewSTR(items)
	for _, it := range items {
		if tr.Bounds().Union(it.Bounds()) != tr.Bounds() {
			t.Fatalf("tree bounds %v do not cover %v", tr.Bounds(), it.Bounds())
		}
	}
}

func BenchmarkSTRBuild1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := randBoxes(r, 1000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSTR(items)
	}
}

func BenchmarkSearch1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := NewSTR(randBoxes(r, 1000, 1000))
	w := geom.Rect{Min: geom.P(400, 400), Max: geom.P(450, 450)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(w, func(Item) bool { return true })
	}
}
