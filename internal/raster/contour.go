package raster

import (
	"sort"

	"cardopc/internal/geom"
	"cardopc/internal/obs"
)

// Binary is a binary image over a Grid: Data[y*Size+x] ∈ {0, 1} (values >1
// are used internally by the border-following labeller).
type Binary struct {
	Grid
	Data []int8
}

// NewBinary allocates a zeroed binary image over g.
func NewBinary(g Grid) *Binary {
	return &Binary{Grid: g, Data: make([]int8, g.Size*g.Size)}
}

// Set stores v at (x, y); out-of-range writes are ignored.
func (b *Binary) Set(x, y int, v int8) {
	if x < 0 || y < 0 || x >= b.Size || y >= b.Size {
		return
	}
	b.Data[y*b.Size+x] = v
}

// Count returns the number of nonzero pixels.
func (b *Binary) Count() int {
	n := 0
	for _, v := range b.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Contour is one traced boundary in world coordinates. Outer contours are
// counter-clockwise; holes are clockwise.
type Contour struct {
	Pts  geom.Polygon
	Hole bool
}

// neighbour offsets in clockwise order starting east (Suzuki's convention
// uses 8-connectivity for the foreground).
var nb8 = [8][2]int{{1, 0}, {1, -1}, {0, -1}, {-1, -1}, {-1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// TraceBoundaries implements Suzuki–Abe border following (Suzuki 1985, the
// algorithm the paper's Algorithm 1 uses via OpenCV) over a copy of b. It
// returns every outer border and hole border as world-coordinate contours.
// Pixel (x,y) maps to the world centre of that pixel.
func TraceBoundaries(b *Binary) []Contour {
	size := b.Size
	// Label image: copy of input with border labels. 1 = unvisited
	// foreground; >=2 or <=-2: visited border labels.
	lab := make([]int32, size*size)
	for i, v := range b.Data {
		if v != 0 {
			lab[i] = 1
		}
	}
	at := func(x, y int) int32 {
		if x < 0 || y < 0 || x >= size || y >= size {
			return 0
		}
		return lab[y*size+x]
	}
	set := func(x, y int, v int32) { lab[y*size+x] = v }

	var contours []Contour
	nbd := int32(1)
	for y := 0; y < size; y++ {
		lnbd := int32(1)
		for x := 0; x < size; x++ {
			v := at(x, y)
			if v == 0 {
				continue
			}
			outer := v == 1 && at(x-1, y) == 0
			hole := v >= 1 && at(x+1, y) == 0
			if !outer && !hole {
				if v != 1 {
					lnbd = abs32(v)
				}
				continue
			}
			nbd++
			var fromX, fromY int
			if outer {
				fromX, fromY = x-1, y
			} else {
				fromX, fromY = x+1, y
				if v > 1 {
					lnbd = v
				}
			}
			_ = lnbd
			pts := followBorder(at, set, size, x, y, fromX, fromY, nbd)
			poly := make(geom.Polygon, len(pts))
			for i, p := range pts {
				poly[i] = b.ToWorld(float64(p[0]), float64(p[1]))
			}
			contours = append(contours, Contour{Pts: poly, Hole: hole})
			if w := at(x, y); w != 1 && w != 0 {
				lnbd = abs32(w)
			}
		}
	}
	return contours
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// followBorder traces one border starting at (x0,y0) with initial backtrack
// pixel (fx,fy), marking visited pixels with label nbd (negated when the
// pixel borders the image's right side per Suzuki's bookkeeping).
func followBorder(at func(int, int) int32, set func(int, int, int32), size, x0, y0, fx, fy int, nbd int32) [][2]int {
	dir := dirOf(x0, y0, fx, fy)
	// Step 3.1: find first nonzero pixel clockwise from the backtrack dir.
	start := -1
	for i := 1; i <= 8; i++ {
		d := (dir + i) % 8
		nx, ny := x0+nb8[d][0], y0+nb8[d][1]
		if at(nx, ny) != 0 {
			start = d
			break
		}
	}
	if start == -1 {
		// Isolated pixel.
		set(x0, y0, -nbd)
		return [][2]int{{x0, y0}}
	}
	var pts [][2]int
	cx, cy := x0, y0
	prevDir := start
	for {
		pts = append(pts, [2]int{cx, cy})
		// Step 3.3: search counter-clockwise from prevDir+1... Suzuki
		// examines neighbours counter-clockwise starting just past the
		// previous pixel.
		found := -1
		rightZero := false
		for i := 1; i <= 8; i++ {
			d := (prevDir + 8 - i) % 8
			nx, ny := cx+nb8[d][0], cy+nb8[d][1]
			if d == 0 && at(nx, ny) == 0 {
				rightZero = true
			}
			if at(nx, ny) != 0 {
				found = d
				break
			}
		}
		// Step 3.4 marking.
		if rightZero {
			set(cx, cy, -nbd)
		} else if at(cx, cy) == 1 {
			set(cx, cy, nbd)
		}
		if found == -1 {
			break
		}
		nx, ny := cx+nb8[found][0], cy+nb8[found][1]
		// Termination: back at start and about to repeat the initial move.
		if nx == x0 && ny == y0 {
			// Check the next pixel would be the same as the second traced one.
			if len(pts) >= 1 {
				break
			}
		}
		cx, cy = nx, ny
		prevDir = (found + 4) % 8
		if len(pts) > 4*size*size {
			break // safety net; cannot happen on well-formed images
		}
	}
	return pts
}

// dirOf returns the index in nb8 of the step from (x,y) to (fx,fy), or 4
// (west) as a safe default.
func dirOf(x, y, fx, fy int) int {
	dx, dy := fx-x, fy-y
	for i, d := range nb8 {
		if d[0] == dx && d[1] == dy {
			return i
		}
	}
	return 4
}

// MarchingSquares extracts iso-contours of field f at level th as closed
// world-coordinate polygons with linear interpolation along cell edges.
// Open contours that hit the image boundary are closed along the border.
func MarchingSquares(f *Field, th float64) []geom.Polygon {
	defer obs.Start("raster.marching_squares").End()
	size := f.Size
	type edgeKey struct{ x, y, e int } // e: 0 bottom, 1 right, 2 top, 3 left of cell (x,y)
	// Build segment list per cell, then stitch.
	segs := map[edgeKey]edgeKey{}
	pts := map[edgeKey]geom.Pt{}

	interp := func(xa, ya, xb, yb int) geom.Pt {
		va := f.At(xa, ya)
		vb := f.At(xb, yb)
		t := 0.5
		//cardopc:allow floatcmp exact guard against 0/0 in the crossing interpolation
		if vb != va {
			t = (th - va) / (vb - va)
		}
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		pa := f.ToWorld(float64(xa), float64(ya))
		pb := f.ToWorld(float64(xb), float64(yb))
		return pa.Lerp(pb, t)
	}

	// Cell (x, y) spans pixel corners (x,y)..(x+1,y+1).
	for y := -1; y < size; y++ {
		for x := -1; x < size; x++ {
			idx := 0
			if f.At(x, y) >= th {
				idx |= 1
			}
			if f.At(x+1, y) >= th {
				idx |= 2
			}
			if f.At(x+1, y+1) >= th {
				idx |= 4
			}
			if f.At(x, y+1) >= th {
				idx |= 8
			}
			if idx == 0 || idx == 15 {
				continue
			}
			bottom := edgeKey{x, y, 0}
			right := edgeKey{x, y, 1}
			top := edgeKey{x, y, 2}
			left := edgeKey{x, y, 3}
			eb := func() geom.Pt { return interp(x, y, x+1, y) }
			er := func() geom.Pt { return interp(x+1, y, x+1, y+1) }
			et := func() geom.Pt { return interp(x, y+1, x+1, y+1) }
			el := func() geom.Pt { return interp(x, y, x, y+1) }
			add := func(from, to edgeKey, pf, pt geom.Pt) {
				segs[from] = to
				pts[from] = pf
				if _, ok := pts[to]; !ok {
					pts[to] = pt
				}
			}
			// Orient segments so the inside (>= th) is on the left.
			switch idx {
			case 1:
				add(left, bottom, el(), eb())
			case 2:
				add(bottom, right, eb(), er())
			case 3:
				add(left, right, el(), er())
			case 4:
				add(right, top, er(), et())
			case 5: // saddle: resolve by centre average
				if (f.At(x, y)+f.At(x+1, y)+f.At(x, y+1)+f.At(x+1, y+1))/4 >= th {
					add(left, top, el(), et())
					add(right, bottom, er(), eb())
				} else {
					add(left, bottom, el(), eb())
					add(right, top, er(), et())
				}
			case 6:
				add(bottom, top, eb(), et())
			case 7:
				add(left, top, el(), et())
			case 8:
				add(top, left, et(), el())
			case 9:
				add(top, bottom, et(), eb())
			case 10: // saddle
				if (f.At(x, y)+f.At(x+1, y)+f.At(x, y+1)+f.At(x+1, y+1))/4 >= th {
					add(top, right, et(), er())
					add(bottom, left, eb(), el())
				} else {
					add(top, left, et(), el())
					add(bottom, right, eb(), er())
				}
			case 11:
				add(top, right, et(), er())
			case 12:
				add(right, left, er(), el())
			case 13:
				add(right, bottom, er(), eb())
			case 14:
				add(bottom, left, eb(), el())
			}
		}
	}

	// Canonicalise edge keys across neighbouring cells: the right edge of
	// cell (x,y) is the left edge of (x+1,y); the top edge is the bottom of
	// (x,y+1). Normalise to bottom/left representation.
	canon := func(k edgeKey) edgeKey {
		switch k.e {
		case 1:
			return edgeKey{k.x + 1, k.y, 3}
		case 2:
			return edgeKey{k.x, k.y + 1, 0}
		}
		return k
	}
	next := map[edgeKey]edgeKey{}
	pos := map[edgeKey]geom.Pt{}
	for from, to := range segs {
		cf, ct := canon(from), canon(to)
		next[cf] = ct
		pos[cf] = pts[from]
		if _, ok := pos[ct]; !ok {
			pos[ct] = pts[to]
		}
	}

	// Stitch cycles from a sorted start list so polygon order — and with
	// it the GDS byte stream — is independent of map iteration.
	starts := make([]edgeKey, 0, len(next))
	for k := range next {
		starts = append(starts, k)
	}
	sort.Slice(starts, func(i, j int) bool {
		a, b := starts[i], starts[j]
		if a.y != b.y {
			return a.y < b.y
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.e < b.e
	})
	var out []geom.Polygon
	visited := map[edgeKey]bool{}
	for _, start := range starts {
		if visited[start] {
			continue
		}
		var poly geom.Polygon
		k := start
		for {
			if visited[k] {
				break
			}
			visited[k] = true
			poly = append(poly, pos[k])
			nk, ok := next[k]
			if !ok {
				break
			}
			k = nk
			if k == start {
				break
			}
		}
		if len(poly) >= 3 {
			out = append(out, poly)
		}
	}
	return out
}

// Label assigns 4-connected component labels to the nonzero pixels of b.
// Labels start at 1; the returned count is the number of components.
func (b *Binary) Label() (labels []int32, count int32) {
	labels = make([]int32, len(b.Data))
	var stack [][2]int
	for y := 0; y < b.Size; y++ {
		for x := 0; x < b.Size; x++ {
			idx := y*b.Size + x
			if b.Data[idx] == 0 || labels[idx] != 0 {
				continue
			}
			count++
			labels[idx] = count
			stack = append(stack[:0], [2]int{x, y})
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := p[0]+d[0], p[1]+d[1]
					if nx < 0 || ny < 0 || nx >= b.Size || ny >= b.Size {
						continue
					}
					ni := ny*b.Size + nx
					if b.Data[ni] != 0 && labels[ni] == 0 {
						labels[ni] = count
						stack = append(stack, [2]int{nx, ny})
					}
				}
			}
		}
	}
	return labels, count
}
