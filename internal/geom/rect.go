package geom

import "math"

// Rect is an axis-aligned bounding box. A Rect is valid when Min.X <= Max.X
// and Min.Y <= Max.Y; EmptyRect is the identity for Union.
type Rect struct {
	Min, Max Pt
}

// EmptyRect returns the empty rectangle: Union with it is a no-op and it
// intersects nothing.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Pt{inf, inf}, Max: Pt{-inf, -inf}}
}

// RectOf returns the minimal Rect covering the given points. With no points
// it returns EmptyRect.
func RectOf(pts ...Pt) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Extend(p)
	}
	return r
}

// Empty reports whether r covers no area and no points.
func (r Rect) Empty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// W returns the width of r (0 for empty rects).
func (r Rect) W() float64 {
	if r.Empty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// H returns the height of r (0 for empty rects).
func (r Rect) H() float64 {
	if r.Empty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the centre point of r.
func (r Rect) Center() Pt {
	return Pt{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Extend returns the minimal rect covering r and p.
func (r Rect) Extend(p Pt) Rect {
	return Rect{
		Min: Pt{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Pt{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Union returns the minimal rect covering r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Min: Pt{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Pt{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Intersects reports whether r and s share at least one point (closed rects).
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Inset returns r shrunk by d on every side (negative d grows the rect).
// Shrinking past the centre yields an empty rect.
func (r Rect) Inset(d float64) Rect {
	return Rect{
		Min: Pt{r.Min.X + d, r.Min.Y + d},
		Max: Pt{r.Max.X - d, r.Max.Y - d},
	}
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect { return r.Inset(-d) }

// Corners returns the four corners of r in counter-clockwise order starting
// at Min.
func (r Rect) Corners() [4]Pt {
	return [4]Pt{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Poly returns the rectangle as a counter-clockwise polygon.
func (r Rect) Poly() Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}
