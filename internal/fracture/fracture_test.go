package fracture

import (
	"math"
	"math/rand"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/spline"
)

// Poly returns the trapezoid as a counter-clockwise polygon.
func (t Trapezoid) Poly() geom.Polygon {
	return geom.Polygon{
		geom.P(t.XL0, t.Y0),
		geom.P(t.XR0, t.Y0),
		geom.P(t.XR1, t.Y1),
		geom.P(t.XL1, t.Y1),
	}
}

func TestFractureRectangle(t *testing.T) {
	poly := geom.Rect{Min: geom.P(0, 0), Max: geom.P(100, 40)}.Poly()
	traps := Fracture(poly, DefaultOptions())
	if len(traps) != 1 {
		t.Fatalf("shots = %d, want 1", len(traps))
	}
	tr := traps[0]
	if !tr.IsRect(1e-9) {
		t.Error("rectangle fractured into a non-rect shot")
	}
	if math.Abs(tr.Area()-4000) > 1e-9 {
		t.Errorf("area = %v, want 4000", tr.Area())
	}
}

func TestFractureTriangle(t *testing.T) {
	poly := geom.Polygon{geom.P(0, 0), geom.P(100, 0), geom.P(50, 60)}
	traps := Fracture(poly, DefaultOptions())
	if len(traps) != 1 {
		t.Fatalf("shots = %d, want 1", len(traps))
	}
	if traps[0].IsRect(1e-6) {
		t.Error("triangle should not classify as a rectangle")
	}
	if math.Abs(traps[0].Area()-3000) > 1 {
		t.Errorf("area = %v, want 3000", traps[0].Area())
	}
}

func TestFractureLShape(t *testing.T) {
	// L-shape: two bands, two rectangles.
	poly := geom.Polygon{
		geom.P(0, 0), geom.P(100, 0), geom.P(100, 40),
		geom.P(40, 40), geom.P(40, 100), geom.P(0, 100),
	}
	traps := Fracture(poly, DefaultOptions())
	if len(traps) != 2 {
		t.Fatalf("shots = %d, want 2", len(traps))
	}
	total := 0.0
	for _, tr := range traps {
		if !tr.IsRect(1e-9) {
			t.Error("rectilinear polygon should fracture into rects")
		}
		total += tr.Area()
	}
	if math.Abs(total-poly.Area()) > 1e-6 {
		t.Errorf("total shot area %v vs polygon %v", total, poly.Area())
	}
}

func TestFractureConcaveMultipleSpans(t *testing.T) {
	// U-shape: the top band has two spans → 3 shots total.
	poly := geom.Polygon{
		geom.P(0, 0), geom.P(120, 0), geom.P(120, 100), geom.P(80, 100),
		geom.P(80, 40), geom.P(40, 40), geom.P(40, 100), geom.P(0, 100),
	}
	traps := Fracture(poly, DefaultOptions())
	if len(traps) != 3 {
		t.Fatalf("shots = %d, want 3", len(traps))
	}
	total := 0.0
	for _, tr := range traps {
		total += tr.Area()
	}
	if math.Abs(total-poly.Area()) > 1e-6 {
		t.Errorf("total shot area %v vs polygon %v", total, poly.Area())
	}
}

// Property: shot areas sum to the polygon area for random star polygons.
func TestFractureAreaConservationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(12)
		poly := make(geom.Polygon, n)
		for i := range poly {
			a := 2 * math.Pi * (float64(i) + 0.4*r.Float64()) / float64(n)
			rad := 40 + 120*r.Float64()
			poly[i] = geom.P(500+rad*math.Cos(a), 500+rad*math.Sin(a))
		}
		opt := DefaultOptions()
		opt.SnapTol = 0 // exact banding for the conservation check
		traps := Fracture(poly, opt)
		total := 0.0
		for _, tr := range traps {
			total += tr.Area()
		}
		if math.Abs(total-poly.Area()) > 1e-6*poly.Area() {
			t.Fatalf("trial %d: shots %v vs polygon %v", trial, total, poly.Area())
		}
	}
}

func TestMaxShotHeightSplits(t *testing.T) {
	poly := geom.Rect{Min: geom.P(0, 0), Max: geom.P(50, 1000)}.Poly()
	opt := DefaultOptions()
	opt.MaxShotHeight = 300
	traps := Fracture(poly, opt)
	if len(traps) != 4 {
		t.Fatalf("shots = %d, want 4 (1000/300 rounded up)", len(traps))
	}
	for _, tr := range traps {
		if tr.Height() > 300+1e-9 {
			t.Errorf("shot height %v exceeds aperture", tr.Height())
		}
	}
}

func TestCurvilinearCostsMoreShots(t *testing.T) {
	// The fracturing-aware trade-off: a spline-sampled circle fractures
	// into far more shots than the rectangle of equal area.
	rect := geom.Rect{Min: geom.P(0, 0), Max: geom.P(100, 100)}.Poly()
	ctrl := make([]geom.Pt, 24)
	for i := range ctrl {
		a := 2 * math.Pi * float64(i) / 24
		ctrl[i] = geom.P(200+56*math.Cos(a), 200+56*math.Sin(a))
	}
	circle := spline.NewCurve(ctrl, 0.6).Sample(8)

	_, rectStats := FractureAll([]geom.Polygon{rect}, DefaultOptions())
	_, circStats := FractureAll([]geom.Polygon{circle}, DefaultOptions())
	if rectStats.Shots != 1 {
		t.Errorf("rect shots = %d", rectStats.Shots)
	}
	if circStats.Shots < 10*rectStats.Shots {
		t.Errorf("curvilinear shot count %d not clearly above rect %d",
			circStats.Shots, rectStats.Shots)
	}
	if circStats.Rects > circStats.Shots/2 {
		t.Errorf("circle should be mostly non-rect shots: %d/%d",
			circStats.Rects, circStats.Shots)
	}
}

func TestStatsEmpty(t *testing.T) {
	_, st := FractureAll(nil, DefaultOptions())
	if st.Shots != 0 || st.MinHeight != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestFractureDegenerate(t *testing.T) {
	if traps := Fracture(geom.Polygon{geom.P(0, 0), geom.P(1, 1)}, DefaultOptions()); traps != nil {
		t.Errorf("degenerate polygon fractured: %v", traps)
	}
}

func TestTrapezoidPoly(t *testing.T) {
	tr := Trapezoid{Y0: 0, Y1: 10, XL0: 0, XR0: 20, XL1: 5, XR1: 15}
	p := tr.Poly()
	if p.SignedArea() <= 0 {
		t.Error("trapezoid polygon should be CCW")
	}
	if math.Abs(p.Area()-tr.Area()) > 1e-9 {
		t.Errorf("polygon area %v vs trapezoid %v", p.Area(), tr.Area())
	}
}
