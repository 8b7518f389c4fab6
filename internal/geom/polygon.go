package geom

import "math"

// Polygon is a simple closed polygon given by its vertices in order. The
// closing edge from the last vertex back to the first is implicit. Positive
// (counter-clockwise) orientation is the convention for mask shapes.
type Polygon []Pt

// Clone returns a deep copy of g.
func (g Polygon) Clone() Polygon {
	out := make(Polygon, len(g))
	copy(out, g)
	return out
}

// SignedArea returns the shoelace signed area of g: positive for
// counter-clockwise orientation.
func (g Polygon) SignedArea() float64 {
	n := len(g)
	if n < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += g[i].Cross(g[j])
	}
	return sum / 2
}

// Area returns the absolute shoelace area of g.
func (g Polygon) Area() float64 { return math.Abs(g.SignedArea()) }

// Perimeter returns the total boundary length of g.
func (g Polygon) Perimeter() float64 {
	n := len(g)
	if n < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g[i].Dist(g[(i+1)%n])
	}
	return sum
}

// Centroid returns the area centroid of g. Degenerate polygons fall back to
// the vertex mean.
func (g Polygon) Centroid() Pt {
	a := g.SignedArea()
	if a == 0 {
		var c Pt
		for _, p := range g {
			c = c.Add(p)
		}
		if len(g) > 0 {
			c = c.Mul(1 / float64(len(g)))
		}
		return c
	}
	var cx, cy float64
	n := len(g)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		w := g[i].Cross(g[j])
		cx += (g[i].X + g[j].X) * w
		cy += (g[i].Y + g[j].Y) * w
	}
	k := 1 / (6 * a)
	return Pt{cx * k, cy * k}
}

// Bounds returns the bounding box of g.
func (g Polygon) Bounds() Rect {
	return RectOf(g...)
}

// Reverse reverses the vertex order (flips orientation) in place.
func (g Polygon) Reverse() {
	for i, j := 0, len(g)-1; i < j; i, j = i+1, j-1 {
		g[i], g[j] = g[j], g[i]
	}
}

// EnsureCCW flips g in place if it is clockwise, and returns g.
func (g Polygon) EnsureCCW() Polygon {
	if g.SignedArea() < 0 {
		g.Reverse()
	}
	return g
}

// Contains reports whether p lies inside g (boundary points count as
// inside), using the even-odd ray-crossing rule.
func (g Polygon) Contains(p Pt) bool {
	n := len(g)
	if n < 3 {
		return false
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := g[j], g[i]
		// Boundary check.
		if (Seg{a, b}).Dist(p) <= segEps {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < x {
				inside = !inside
			}
		}
	}
	return inside
}

// Edge returns the i-th edge of g (from vertex i to vertex i+1, cyclically).
func (g Polygon) Edge(i int) Seg {
	n := len(g)
	return Seg{g[i%n], g[(i+1)%n]}
}

// IntersectsSeg reports whether segment s touches or crosses the boundary
// of g.
func (g Polygon) IntersectsSeg(s Seg) bool {
	sb := s.Bounds()
	n := len(g)
	for i := 0; i < n; i++ {
		e := g.Edge(i)
		if !e.Bounds().Intersects(sb) {
			continue
		}
		if e.Intersects(s) {
			return true
		}
	}
	return false
}

// Translate returns g shifted by d.
func (g Polygon) Translate(d Pt) Polygon {
	out := make(Polygon, len(g))
	for i, p := range g {
		out[i] = p.Add(d)
	}
	return out
}

// Resample returns a closed polyline of n points evenly spaced by arc length
// along the boundary of g, starting at vertex 0. It requires n >= 3 and a
// non-degenerate perimeter; otherwise it returns a clone of g.
func (g Polygon) Resample(n int) Polygon {
	per := g.Perimeter()
	if n < 3 || per == 0 || len(g) < 3 {
		return g.Clone()
	}
	step := per / float64(n)
	out := make(Polygon, 0, n)
	// Walk edges accumulating arc length.
	target := 0.0
	acc := 0.0
	m := len(g)
	for i := 0; i < m && len(out) < n; i++ {
		e := g.Edge(i)
		el := e.Len()
		for target <= acc+el && len(out) < n {
			t := 0.0
			if el > 0 {
				t = (target - acc) / el
			}
			out = append(out, e.At(t))
			target += step
		}
		acc += el
	}
	for len(out) < n {
		out = append(out, g[0])
	}
	return out
}

// IsRectilinear reports whether every edge of g is axis-parallel within tol.
func (g Polygon) IsRectilinear(tol float64) bool {
	for i := range g {
		e := g.Edge(i)
		dx := math.Abs(e.B.X - e.A.X)
		dy := math.Abs(e.B.Y - e.A.Y)
		if dx > tol && dy > tol {
			return false
		}
	}
	return true
}

// PolyDist returns the minimum boundary-to-boundary distance between g and
// h (0 when they touch or overlap boundaries).
func PolyDist(g, h Polygon) float64 {
	d := math.Inf(1)
	for i := range g {
		e := g.Edge(i)
		for j := range h {
			if v := e.DistSeg(h.Edge(j)); v < d {
				d = v
				if d == 0 {
					return 0
				}
			}
		}
	}
	return d
}
