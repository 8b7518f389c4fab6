package geom

import (
	"testing"
	"testing/quick"
)

// ContainsRect reports whether s lies entirely within the closed rect r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Min.X <= s.Min.X && s.Max.X <= r.Max.X && r.Min.Y <= s.Min.Y && s.Max.Y <= r.Max.Y
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.Empty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.W() != 0 || e.H() != 0 || e.Area() != 0 {
		t.Error("empty rect should have zero dims")
	}
	r := Rect{P(0, 0), P(2, 3)}
	if got := e.Union(r); got != r {
		t.Errorf("Union with empty = %v", got)
	}
	if got := r.Union(e); got != r {
		t.Errorf("Union with empty = %v", got)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect should intersect nothing")
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(P(1, 5), P(-2, 3), P(0, 7))
	want := Rect{P(-2, 3), P(1, 7)}
	if r != want {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{P(0, 0), P(4, 2)}
	if r.W() != 4 || r.H() != 2 || r.Area() != 8 {
		t.Errorf("dims wrong: %v %v %v", r.W(), r.H(), r.Area())
	}
	if r.Center() != P(2, 1) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectIntersectsContains(t *testing.T) {
	r := Rect{P(0, 0), P(10, 10)}
	cases := []struct {
		s    Rect
		want bool
	}{
		{Rect{P(5, 5), P(15, 15)}, true},
		{Rect{P(10, 10), P(20, 20)}, true}, // touching corner counts
		{Rect{P(11, 0), P(20, 10)}, false},
		{Rect{P(2, 2), P(3, 3)}, true},
	}
	for _, c := range cases {
		if got := r.Intersects(c.s); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	if !r.ContainsRect(Rect{P(1, 1), P(9, 9)}) {
		t.Error("ContainsRect inner failed")
	}
	if r.ContainsRect(Rect{P(1, 1), P(11, 9)}) {
		t.Error("ContainsRect overflow should fail")
	}
}

func TestRectInsetExpand(t *testing.T) {
	r := Rect{P(0, 0), P(10, 10)}
	in := r.Inset(2)
	if in != (Rect{P(2, 2), P(8, 8)}) {
		t.Errorf("Inset = %v", in)
	}
	ex := r.Expand(1)
	if ex != (Rect{P(-1, -1), P(11, 11)}) {
		t.Errorf("Expand = %v", ex)
	}
	if !r.Inset(6).Empty() {
		t.Error("over-inset should be empty")
	}
}

func TestRectPoly(t *testing.T) {
	r := Rect{P(0, 0), P(4, 2)}
	p := r.Poly()
	if p.SignedArea() != 8 {
		t.Errorf("Poly area = %v, want 8 (CCW)", p.SignedArea())
	}
}

// Property: Union is commutative and covers both operands.
func TestUnionProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		r := RectOf(P(float64(ax), float64(ay)), P(float64(bx), float64(by)))
		s := RectOf(P(float64(cx), float64(cy)), P(float64(dx), float64(dy)))
		u := r.Union(s)
		return u == s.Union(r) && u.ContainsRect(r) && u.ContainsRect(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intersects is symmetric.
func TestIntersectsSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		r := RectOf(P(float64(ax), float64(ay)), P(float64(bx), float64(by)))
		s := RectOf(P(float64(cx), float64(cy)), P(float64(dx), float64(dy)))
		return r.Intersects(s) == s.Intersects(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
