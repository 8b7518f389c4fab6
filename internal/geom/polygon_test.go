package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func unitSquare() Polygon {
	return Polygon{P(0, 0), P(10, 0), P(10, 10), P(0, 10)}
}

func TestSignedArea(t *testing.T) {
	sq := unitSquare()
	if a := sq.SignedArea(); a != 100 {
		t.Errorf("CCW area = %v, want 100", a)
	}
	cw := sq.Clone()
	cw.Reverse()
	if a := cw.SignedArea(); a != -100 {
		t.Errorf("CW area = %v, want -100", a)
	}
	tri := Polygon{P(0, 0), P(4, 0), P(0, 3)}
	if a := tri.Area(); a != 6 {
		t.Errorf("triangle area = %v, want 6", a)
	}
	if a := (Polygon{P(0, 0), P(1, 1)}).SignedArea(); a != 0 {
		t.Errorf("degenerate area = %v", a)
	}
}

func TestPerimeterCentroid(t *testing.T) {
	sq := unitSquare()
	if p := sq.Perimeter(); p != 40 {
		t.Errorf("perimeter = %v", p)
	}
	if c := sq.Centroid(); !c.ApproxEq(P(5, 5), 1e-9) {
		t.Errorf("centroid = %v", c)
	}
	// Degenerate polygon falls back to vertex mean.
	line := Polygon{P(0, 0), P(2, 0), P(4, 0)}
	if c := line.Centroid(); !c.ApproxEq(P(2, 0), 1e-9) {
		t.Errorf("degenerate centroid = %v", c)
	}
}

func TestEnsureCCW(t *testing.T) {
	cw := unitSquare()
	cw.Reverse()
	cw.EnsureCCW()
	if cw.SignedArea() <= 0 {
		t.Error("EnsureCCW failed")
	}
	ccw := unitSquare()
	before := ccw.Clone()
	ccw.EnsureCCW()
	for i := range ccw {
		if ccw[i] != before[i] {
			t.Fatal("EnsureCCW should not modify CCW polygon")
		}
	}
}

func TestContains(t *testing.T) {
	sq := unitSquare()
	if !sq.Contains(P(5, 5)) {
		t.Error("interior point")
	}
	if sq.Contains(P(15, 5)) || sq.Contains(P(5, -1)) {
		t.Error("exterior point")
	}
	if !sq.Contains(P(0, 5)) || !sq.Contains(P(10, 10)) {
		t.Error("boundary points should count as inside")
	}
	// L-shape concavity.
	l := Polygon{P(0, 0), P(10, 0), P(10, 5), P(5, 5), P(5, 10), P(0, 10)}
	if !l.Contains(P(2, 8)) {
		t.Error("L interior")
	}
	if l.Contains(P(8, 8)) {
		t.Error("L notch is exterior")
	}
}

func TestIntersectsSeg(t *testing.T) {
	sq := unitSquare()
	if !sq.IntersectsSeg(Seg{P(-5, 5), P(5, 5)}) {
		t.Error("crossing segment should intersect")
	}
	if sq.IntersectsSeg(Seg{P(2, 2), P(8, 8)}) {
		t.Error("fully interior segment does not touch boundary")
	}
	if sq.IntersectsSeg(Seg{P(20, 20), P(30, 30)}) {
		t.Error("far segment")
	}
}

func TestPolyDistAndSegDist(t *testing.T) {
	a := unitSquare()
	b := unitSquare().Translate(P(15, 0))
	if d := PolyDist(a, b); d != 5 {
		t.Errorf("PolyDist = %v, want 5", d)
	}
	if d := PolyDist(a, unitSquare().Translate(P(5, 5))); d != 0 {
		t.Errorf("overlapping PolyDist = %v, want 0", d)
	}
}

func TestTranslateScale(t *testing.T) {
	sq := unitSquare()
	tr := sq.Translate(P(1, 2))
	if tr[0] != P(1, 2) || tr[2] != P(11, 12) {
		t.Errorf("Translate wrong: %v", tr)
	}
	// Original untouched.
	if sq[0] != P(0, 0) {
		t.Error("Translate must not mutate")
	}
}

func TestResample(t *testing.T) {
	sq := unitSquare()
	r := sq.Resample(8)
	if len(r) != 8 {
		t.Fatalf("len = %d, want 8", len(r))
	}
	// Evenly spaced: every consecutive pair 5 apart along the boundary.
	for i := 0; i < 8; i++ {
		d := r[i].Dist(r[(i+1)%8])
		if math.Abs(d-5) > 1e-9 {
			t.Errorf("spacing %d = %v, want 5", i, d)
		}
	}
	// Area approximately preserved for fine resampling.
	fine := sq.Resample(400)
	if math.Abs(fine.Area()-100) > 1 {
		t.Errorf("resampled area = %v", fine.Area())
	}
	// Degenerate inputs return a clone.
	line := Polygon{P(0, 0), P(1, 0)}
	if got := line.Resample(10); len(got) != 2 {
		t.Errorf("degenerate resample len = %d", len(got))
	}
}

func TestIsRectilinear(t *testing.T) {
	if !unitSquare().IsRectilinear(1e-9) {
		t.Error("square is rectilinear")
	}
	tri := Polygon{P(0, 0), P(4, 0), P(0, 3)}
	if tri.IsRectilinear(1e-9) {
		t.Error("triangle is not rectilinear")
	}
}

func TestEdges(t *testing.T) {
	sq := unitSquare()
	if e := sq.Edge(3); e != (Seg{P(0, 10), P(0, 0)}) {
		t.Errorf("closing edge = %v", e)
	}
	if sq.Edge(4) != sq.Edge(0) {
		t.Errorf("Edge(4) = %v, want Edge(0) = %v", sq.Edge(4), sq.Edge(0))
	}
}

// randPoly builds a star-shaped (hence simple) polygon around the origin.
func randPoly(r *rand.Rand, n int) Polygon {
	g := make(Polygon, n)
	for i := range g {
		ang := 2 * math.Pi * (float64(i) + 0.3*r.Float64()) / float64(n)
		rad := 5 + 10*r.Float64()
		g[i] = P(rad*math.Cos(ang), rad*math.Sin(ang))
	}
	return g
}

// Property: reversing a polygon negates the signed area, preserves
// perimeter, and Contains is unchanged.
func TestReverseProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randPoly(r, 5+r.Intn(10))
		rev := g.Clone()
		rev.Reverse()
		if math.Abs(g.SignedArea()+rev.SignedArea()) > 1e-9 {
			t.Fatalf("signed area not negated")
		}
		if math.Abs(g.Perimeter()-rev.Perimeter()) > 1e-9 {
			t.Fatalf("perimeter changed")
		}
		p := P(r.Float64()*30-15, r.Float64()*30-15)
		if g.Contains(p) != rev.Contains(p) {
			t.Fatalf("containment changed under reversal at %v", p)
		}
	}
}

// Property: translation preserves area and perimeter.
func TestTranslateInvariantsProperty(t *testing.T) {
	f := func(dx, dy int8) bool {
		g := randPoly(rand.New(rand.NewSource(int64(dx)*257+int64(dy))), 8)
		tr := g.Translate(P(float64(dx), float64(dy)))
		return math.Abs(g.Area()-tr.Area()) < 1e-6 &&
			math.Abs(g.Perimeter()-tr.Perimeter()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: centroid of a star polygon is inside it.
func TestCentroidInsideProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := randPoly(r, 6+r.Intn(8))
		if !g.Contains(g.Centroid()) {
			t.Fatalf("centroid %v outside star polygon", g.Centroid())
		}
	}
}
