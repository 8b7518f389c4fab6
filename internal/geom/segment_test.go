package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegBasics(t *testing.T) {
	s := Seg{P(0, 0), P(3, 4)}
	if s.Len() != 5 {
		t.Errorf("Len = %v", s.Len())
	}
	if s.Mid() != P(1.5, 2) {
		t.Errorf("Mid = %v", s.Mid())
	}
	if s.At(0) != s.A || s.At(1) != s.B {
		t.Error("At endpoints wrong")
	}
	d := s.Dir()
	if math.Abs(d.Norm()-1) > 1e-12 {
		t.Errorf("Dir not unit: %v", d)
	}
	n := s.Normal()
	if math.Abs(n.Dot(d)) > 1e-12 {
		t.Errorf("Normal not orthogonal: %v", n)
	}
}

func TestSegIntersects(t *testing.T) {
	cases := []struct {
		s, u Seg
		want bool
	}{
		{Seg{P(0, 0), P(10, 10)}, Seg{P(0, 10), P(10, 0)}, true}, // X cross
		{Seg{P(0, 0), P(10, 0)}, Seg{P(5, 0), P(5, 5)}, true},    // T touch
		{Seg{P(0, 0), P(10, 0)}, Seg{P(0, 1), P(10, 1)}, false},  // parallel
		{Seg{P(0, 0), P(5, 0)}, Seg{P(6, 0), P(10, 0)}, false},   // collinear gap
		{Seg{P(0, 0), P(5, 0)}, Seg{P(4, 0), P(10, 0)}, true},    // collinear overlap
		{Seg{P(0, 0), P(5, 0)}, Seg{P(5, 0), P(10, 0)}, true},    // endpoint touch
		{Seg{P(0, 0), P(1, 1)}, Seg{P(2, 2), P(3, 0)}, false},    // disjoint
		{Seg{P(0, 0), P(0, 10)}, Seg{P(-5, 5), P(5, 5)}, true},   // vertical cross
	}
	for i, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestClosestPointAndDist(t *testing.T) {
	s := Seg{P(0, 0), P(10, 0)}
	q, tt := s.ClosestPoint(P(5, 3))
	if q != P(5, 0) || tt != 0.5 {
		t.Errorf("ClosestPoint = %v, t=%v", q, tt)
	}
	q, tt = s.ClosestPoint(P(-5, 3))
	if q != P(0, 0) || tt != 0 {
		t.Errorf("ClosestPoint clamp = %v, t=%v", q, tt)
	}
	if d := s.Dist(P(5, 3)); d != 3 {
		t.Errorf("Dist = %v", d)
	}
	// Degenerate segment.
	d := Seg{P(1, 1), P(1, 1)}
	if got := d.Dist(P(4, 5)); got != 5 {
		t.Errorf("degenerate Dist = %v", got)
	}
}

func TestDistSeg(t *testing.T) {
	a := Seg{P(0, 0), P(10, 0)}
	b := Seg{P(0, 3), P(10, 3)}
	if d := a.DistSeg(b); d != 3 {
		t.Errorf("parallel DistSeg = %v", d)
	}
	c := Seg{P(5, -5), P(5, 5)}
	if d := a.DistSeg(c); d != 0 {
		t.Errorf("crossing DistSeg = %v", d)
	}
}

// Property: ClosestPoint actually minimises distance over sampled t.
func TestClosestPointMinimalProperty(t *testing.T) {
	f := func(ax, ay, bx, by, px, py int8) bool {
		s := Seg{P(float64(ax), float64(ay)), P(float64(bx), float64(by))}
		p := P(float64(px), float64(py))
		q, _ := s.ClosestPoint(p)
		best := p.Dist(q)
		for i := 0; i <= 20; i++ {
			if d := p.Dist(s.At(float64(i) / 20)); d < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DistSeg is symmetric and zero iff Intersects.
func TestDistSegSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		s := Seg{P(float64(ax), float64(ay)), P(float64(bx), float64(by))}
		u := Seg{P(float64(cx), float64(cy)), P(float64(dx), float64(dy))}
		d1, d2 := s.DistSeg(u), u.DistSeg(s)
		if math.Abs(d1-d2) > 1e-9 {
			return false
		}
		if s.Intersects(u) {
			return d1 == 0
		}
		return d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
