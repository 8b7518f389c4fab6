package geom

import "math"

// Seg is a closed line segment from A to B.
type Seg struct {
	A, B Pt
}

// Bounds returns the bounding box of s.
func (s Seg) Bounds() Rect { return RectOf(s.A, s.B) }

// Len returns the length of s.
func (s Seg) Len() float64 { return s.A.Dist(s.B) }

// Mid returns the midpoint of s.
func (s Seg) Mid() Pt { return s.A.Lerp(s.B, 0.5) }

// At returns the point A + t*(B-A).
func (s Seg) At(t float64) Pt { return s.A.Lerp(s.B, t) }

// Dir returns the unit direction vector from A to B.
func (s Seg) Dir() Pt { return s.B.Sub(s.A).Unit() }

// Normal returns the unit left normal of s (90 degrees counter-clockwise
// from the direction A→B).
func (s Seg) Normal() Pt { return s.Dir().Perp() }

const segEps = 1e-9

// orient returns >0 if c is left of a→b, <0 if right, 0 if collinear
// (within a relative epsilon).
func orient(a, b, c Pt) float64 {
	v := b.Sub(a).Cross(c.Sub(a))
	scale := math.Max(b.Sub(a).Norm2(), c.Sub(a).Norm2())
	if math.Abs(v) <= segEps*scale {
		return 0
	}
	return v
}

// onSegment reports whether collinear point c lies within the bounding box
// of segment ab.
func onSegment(a, b, c Pt) bool {
	return math.Min(a.X, b.X)-segEps <= c.X && c.X <= math.Max(a.X, b.X)+segEps &&
		math.Min(a.Y, b.Y)-segEps <= c.Y && c.Y <= math.Max(a.Y, b.Y)+segEps
}

// Intersects reports whether segments s and t share at least one point,
// including touching endpoints and collinear overlap.
func (s Seg) Intersects(t Seg) bool {
	d1 := orient(s.A, s.B, t.A)
	d2 := orient(s.A, s.B, t.B)
	d3 := orient(t.A, t.B, s.A)
	d4 := orient(t.A, t.B, s.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case d2 == 0 && onSegment(s.A, s.B, t.B):
		return true
	case d3 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case d4 == 0 && onSegment(t.A, t.B, s.B):
		return true
	}
	return false
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// ClosestPoint returns the point on s closest to p, together with the curve
// parameter t in [0,1].
func (s Seg) ClosestPoint(p Pt) (Pt, float64) {
	d := s.B.Sub(s.A)
	n2 := d.Norm2()
	if n2 == 0 {
		return s.A, 0
	}
	t := clamp01(p.Sub(s.A).Dot(d) / n2)
	return s.At(t), t
}

// Dist returns the distance from point p to segment s.
func (s Seg) Dist(p Pt) float64 {
	q, _ := s.ClosestPoint(p)
	return p.Dist(q)
}

// DistSeg returns the minimum distance between segments s and t (0 when they
// intersect).
func (s Seg) DistSeg(t Seg) float64 {
	if s.Intersects(t) {
		return 0
	}
	d := s.Dist(t.A)
	if v := s.Dist(t.B); v < d {
		d = v
	}
	if v := t.Dist(s.A); v < d {
		d = v
	}
	if v := t.Dist(s.B); v < d {
		d = v
	}
	return d
}
