package spline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cardopc/internal/geom"
)

// ArcLength returns the approximate total arc length of the loop, using
// perSeg linear subdivisions per segment.
func (c *Curve) ArcLength(perSeg int) float64 {
	return c.Sample(perSeg).Perimeter()
}

func squareCtrl(r float64) []geom.Pt {
	return []geom.Pt{{X: -r, Y: -r}, {X: r, Y: -r}, {X: r, Y: r}, {X: -r, Y: r}}
}

// circleCtrl places n control points on a circle of radius r.
func circleCtrl(n int, r float64) []geom.Pt {
	pts := make([]geom.Pt, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt{X: r * math.Cos(a), Y: r * math.Sin(a)}
	}
	return pts
}

func TestBasisMatchesPaper(t *testing.T) {
	s := 0.6
	b := NewBasis(s)
	want := Basis{
		{0, 1, 0, 0},
		{-s, 0, s, 0},
		{2 * s, s - 3, 3 - 2*s, -s},
		{-s, 2 - s, s - 2, s},
	}
	if b != want {
		t.Errorf("basis = %v, want %v", b, want)
	}
}

func TestWeightsPartitionOfUnity(t *testing.T) {
	// Rows of S_card weights sum to 1 for all t: p(t) reproduces constants.
	b := NewBasis(0.6)
	for _, tt := range []float64{0, 0.25, 0.5, 0.75, 1} {
		w := b.Weights(tt)
		sum := w[0] + w[1] + w[2] + w[3]
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("t=%v: weight sum = %v", tt, sum)
		}
		dw := b.DerivWeights(tt)
		if s := dw[0] + dw[1] + dw[2] + dw[3]; math.Abs(s) > 1e-12 {
			t.Errorf("t=%v: deriv weight sum = %v", tt, s)
		}
		ddw := b.SecondDerivWeights(tt)
		if s := ddw[0] + ddw[1] + ddw[2] + ddw[3]; math.Abs(s) > 1e-12 {
			t.Errorf("t=%v: 2nd deriv weight sum = %v", tt, s)
		}
	}
}

func TestCurveInterpolatesControlPoints(t *testing.T) {
	// Paper: p(0) = p_i, p(1) = p_{i+1} for every tension.
	for _, s := range []float64{0, 0.3, 0.6, 1} {
		c := NewCurve(circleCtrl(7, 100), s)
		for i := 0; i < c.Segments(); i++ {
			if got := c.At(i, 0); !got.ApproxEq(c.Ctrl[i], 1e-9) {
				t.Errorf("s=%v seg %d: p(0) = %v, want %v", s, i, got, c.Ctrl[i])
			}
			next := c.Ctrl[(i+1)%len(c.Ctrl)]
			if got := c.At(i, 1); !got.ApproxEq(next, 1e-9) {
				t.Errorf("s=%v seg %d: p(1) = %v, want %v", s, i, got, next)
			}
		}
	}
}

func TestCurveC1Continuity(t *testing.T) {
	// Tangent at segment end equals tangent at next segment start.
	c := NewCurve(circleCtrl(9, 50), 0.6)
	for i := 0; i < c.Segments(); i++ {
		end := c.Deriv(i, 1)
		start := c.Deriv((i+1)%c.Segments(), 0)
		if !end.ApproxEq(start, 1e-9) {
			t.Errorf("seg %d: deriv mismatch %v vs %v", i, end, start)
		}
	}
}

func TestDerivMatchesFiniteDifference(t *testing.T) {
	c := NewCurve(circleCtrl(6, 80), 0.6)
	h := 1e-6
	for i := 0; i < c.Segments(); i++ {
		for _, tt := range []float64{0.1, 0.5, 0.9} {
			fd := c.At(i, tt+h).Sub(c.At(i, tt-h)).Mul(1 / (2 * h))
			an := c.Deriv(i, tt)
			if fd.Dist(an) > 1e-3 {
				t.Errorf("seg %d t=%v: analytic %v vs fd %v", i, tt, an, fd)
			}
		}
	}
}

func TestSecondDerivMatchesFiniteDifference(t *testing.T) {
	c := NewCurve(circleCtrl(6, 80), 0.6)
	h := 1e-4
	for i := 0; i < c.Segments(); i++ {
		for _, tt := range []float64{0.2, 0.5, 0.8} {
			fd := c.At(i, tt+h).Add(c.At(i, tt-h)).Sub(c.At(i, tt).Mul(2)).Mul(1 / (h * h))
			an := c.SecondDeriv(i, tt)
			if fd.Dist(an) > 1e-2*math.Max(1, an.Norm()) {
				t.Errorf("seg %d t=%v: analytic %v vs fd %v", i, tt, an, fd)
			}
		}
	}
}

func TestNormalIsUnitAndOrthogonal(t *testing.T) {
	c := NewCurve(circleCtrl(8, 60), 0.6)
	for i := 0; i < c.Segments(); i++ {
		for _, tt := range []float64{0, 0.3, 0.7} {
			n := c.Normal(i, tt)
			if math.Abs(n.Norm()-1) > 1e-9 {
				t.Errorf("normal not unit: %v", n)
			}
			if math.Abs(n.Dot(c.Deriv(i, tt).Unit())) > 1e-9 {
				t.Errorf("normal not orthogonal to tangent")
			}
		}
	}
}

func TestCircleCurvature(t *testing.T) {
	// A dense control polygon on a circle of radius R has |κ| ≈ 1/R.
	R := 200.0
	c := NewCurve(circleCtrl(64, R), 0.5)
	for _, tt := range []float64{0, 0.5} {
		k := math.Abs(c.Curvature(3, tt))
		if math.Abs(k-1/R) > 0.15/R {
			t.Errorf("circle curvature = %v, want ~%v", k, 1/R)
		}
	}
}

func TestCurvatureSignConvention(t *testing.T) {
	// CCW circle: tangent turns left, κ > 0 with the cross-product formula.
	c := NewCurve(circleCtrl(32, 100), 0.5)
	if k := c.Curvature(5, 0.5); k <= 0 {
		t.Errorf("CCW curvature = %v, want > 0", k)
	}
	cw := circleCtrl(32, 100)
	for i, j := 0, len(cw)-1; i < j; i, j = i+1, j-1 {
		cw[i], cw[j] = cw[j], cw[i]
	}
	c2 := NewCurve(cw, 0.5)
	if k := c2.Curvature(5, 0.5); k >= 0 {
		t.Errorf("CW curvature = %v, want < 0", k)
	}
}

func TestSample(t *testing.T) {
	c := NewCurve(squareCtrl(50), 0.6)
	poly := c.Sample(10)
	if len(poly) != 40 {
		t.Fatalf("len = %d, want 40", len(poly))
	}
	// Samples at segment starts are exactly the control points.
	for i := 0; i < 4; i++ {
		if !poly[i*10].ApproxEq(c.Ctrl[i], 1e-9) {
			t.Errorf("sample %d = %v, want control %v", i*10, poly[i*10], c.Ctrl[i])
		}
	}
	// SampleInto reuses and matches.
	buf := make(geom.Polygon, 0, 64)
	buf = c.SampleInto(buf, 10)
	if len(buf) != len(poly) {
		t.Fatalf("SampleInto len = %d", len(buf))
	}
	for i := range buf {
		if buf[i] != poly[i] {
			t.Fatalf("SampleInto differs at %d", i)
		}
	}
}

func TestArcLengthCircle(t *testing.T) {
	R := 100.0
	c := NewCurve(circleCtrl(48, R), 0.5)
	got := c.ArcLength(8)
	want := 2 * math.Pi * R
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("arc length = %v, want ~%v", got, want)
	}
}

func TestMaxAbsCurvature(t *testing.T) {
	// A rounded square has its curvature maxima at the corners, where the
	// control points sit: at the segment ends.
	c := NewCurve(squareCtrl(100), 0.6)
	var kmax, tAt float64
	for i := range c.Ctrl {
		for k := 0; k < 16; k++ {
			tt := float64(k) / 16
			if v := math.Abs(c.Curvature(i, tt)); v > kmax {
				kmax, tAt = v, tt
			}
		}
	}
	if kmax <= 0 {
		t.Fatal("max curvature should be positive")
	}
	if tAt > 0.1 && tAt < 0.9 {
		t.Errorf("max curvature at t=%v, expected near segment ends", tAt)
	}
}

func TestInterpolateCount(t *testing.T) {
	ctrl := circleCtrl(10, 30)
	rows := InterpolateWeights(len(ctrl), 0.6, 57)
	if len(rows) != 57 {
		t.Fatalf("len = %d", len(rows))
	}
	// The first sample (u=0) is the first control point.
	var first geom.Pt
	for c := 0; c < 4; c++ {
		first = first.Add(ctrl[(rows[0].Seg-1+c+len(ctrl))%len(ctrl)].Mul(rows[0].W[c]))
	}
	if rows[0].Seg != 0 || !first.ApproxEq(ctrl[0], 1e-9) {
		t.Errorf("first = %v on segment %d, want %v on 0", first, rows[0].Seg, ctrl[0])
	}
}

func TestInterpolateWeightsMatchInterpolate(t *testing.T) {
	ctrl := circleCtrl(9, 40)
	n := len(ctrl)
	count := 40
	curve := NewCurve(ctrl, 0.6)
	rows := InterpolateWeights(n, 0.6, count)
	if len(rows) != count {
		t.Fatalf("rows = %d", len(rows))
	}
	for j, r := range rows {
		// Sample j sits at loop parameter u = j·n/count.
		u := float64(j) * float64(n) / float64(count)
		direct := curve.At(int(u), u-math.Floor(u))
		var p geom.Pt
		for c := 0; c < 4; c++ {
			idx := ((r.Seg-1+c)%n + n) % n
			p = p.Add(ctrl[idx].Mul(r.W[c]))
		}
		if !p.ApproxEq(direct, 1e-9) {
			t.Fatalf("row %d: %v vs %v", j, p, direct)
		}
	}
}

// Property: the spline is affine-invariant — translating control points
// translates every sample by the same amount.
func TestAffineInvarianceProperty(t *testing.T) {
	f := func(dx, dy int16, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctrl := circleCtrl(5+r.Intn(8), 20+50*r.Float64())
		c1 := NewCurve(ctrl, 0.6)
		shift := geom.Pt{X: float64(dx), Y: float64(dy)}
		moved := make([]geom.Pt, len(ctrl))
		for i := range ctrl {
			moved[i] = ctrl[i].Add(shift)
		}
		c2 := NewCurve(moved, 0.6)
		for i := 0; i < c1.Segments(); i++ {
			for _, tt := range []float64{0.25, 0.75} {
				if !c1.At(i, tt).Add(shift).ApproxEq(c2.At(i, tt), 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: zero tension degenerates to the straight chord between points
// (traversed with smoothstep pacing, so we check chord membership, and that
// the midpoint parameter hits the chord midpoint by symmetry).
func TestZeroTensionIsPolyline(t *testing.T) {
	ctrl := circleCtrl(6, 75)
	c := NewCurve(ctrl, 0)
	for i := 0; i < c.Segments(); i++ {
		a, b := ctrl[i], ctrl[(i+1)%len(ctrl)]
		chord := geom.Seg{A: a, B: b}
		for _, tt := range []float64{0.3, 0.5, 0.8} {
			got := c.At(i, tt)
			if chord.Dist(got) > 1e-9 {
				t.Fatalf("seg %d t=%v: %v is %.3g off the chord", i, tt, got, chord.Dist(got))
			}
		}
		if got := c.At(i, 0.5); !got.ApproxEq(chord.Mid(), 1e-9) {
			t.Fatalf("seg %d: midpoint %v, want %v", i, got, chord.Mid())
		}
	}
}

// Property: sampled loop encloses approximately the right area for a dense
// circle control polygon.
func TestSampledCircleArea(t *testing.T) {
	R := 120.0
	c := NewCurve(circleCtrl(64, R), 0.5)
	got := c.Sample(6).Area()
	want := math.Pi * R * R
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("area = %v, want ~%v", got, want)
	}
}
