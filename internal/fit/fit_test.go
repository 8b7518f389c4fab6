package fit

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/optim"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

func circleBoundary(c geom.Pt, radius float64, n int) geom.Polygon {
	pts := make(geom.Polygon, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.P(c.X+radius*math.Cos(a), c.Y+radius*math.Sin(a))
	}
	return pts
}

func TestFitContourCircle(t *testing.T) {
	boundary := circleBoundary(geom.P(200, 200), 80, 120)
	cfg := DefaultConfig()
	ctrl, loss := FitContour(boundary, cfg)
	if len(ctrl) < cfg.MinCtrl {
		t.Fatalf("control points = %d", len(ctrl))
	}
	// Loss per reference point under 1 nm² (sub-nm fit).
	if loss > 1 {
		t.Errorf("final loss = %v nm² per point", loss)
	}
	// The fitted spline reproduces the circle's area within 2%.
	got := spline.NewCurve(ctrl, cfg.Tension).Sample(8).Area()
	want := math.Pi * 80 * 80
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("fitted area = %v, want ~%v", got, want)
	}
}

// TestFitContourSolvesLeastSquares checks Algorithm 1's solve on a circle,
// a square and a three-lobed contour, across tensions and from the
// smallest boundary FitMask fits to 1,000 points: the returned Q is finite,
// the loss gradient 2Aᵀ(AQ − R) vanishes there, and 300 steps of the
// paper's Adam descent reach no lower loss. On many of these contours Adam
// reaches the minimum too, up to rounding, so the losses are compared with
// a 1e-12 relative slack.
func TestFitContourSolvesLeastSquares(t *testing.T) {
	shapes := map[string]func(n int) geom.Polygon{
		"circle": func(n int) geom.Polygon { return circleBoundary(geom.P(200, 200), 80, n) },
		"square": func(n int) geom.Polygon {
			return geom.Rect{Min: geom.P(100, 100), Max: geom.P(300, 300)}.Poly().Resample(n)
		},
		"trilobe": func(n int) geom.Polygon {
			pts := make(geom.Polygon, n)
			for i := range pts {
				a := 2 * math.Pi * float64(i) / float64(n)
				r := 90 * (1 + 0.3*math.Cos(3*a))
				pts[i] = geom.P(150+r*math.Cos(a), 150+r*math.Sin(a))
			}
			return pts
		},
	}
	for name, shape := range shapes {
		for _, tension := range []float64{0, 0.6, 1, 2} {
			for _, n := range []int{8, 13, 50, 200, 1000} {
				cfg := DefaultConfig()
				cfg.Tension = tension
				boundary := shape(n)
				ctrl, loss := FitContour(boundary, cfg)
				nq := len(ctrl)
				nr := max(int(math.Round(cfg.RR*float64(n))), 2*nq)
				rows := spline.InterpolateWeights(nq, tension, nr)
				r := resamplePts(boundary, nr)
				params := make([]float64, 2*nq)
				for i, p := range ctrl {
					if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
						t.Fatalf("%s s=%v n=%d: control point %d = %v", name, tension, n, i, p)
					}
					params[2*i], params[2*i+1] = p.X, p.Y
				}

				grad := make([]float64, 2*nq)
				if got := mseGrad(params, grad, rows, r); math.Abs(got-loss) > 1e-12*math.Max(loss, 1) {
					t.Errorf("%s s=%v n=%d: returned loss %v, loss at Q %v", name, tension, n, loss, got)
				}
				// ‖AᵀR‖: the gradient at Q = 0 is −2AᵀR.
				atr := make([]float64, 2*nq)
				mseGrad(make([]float64, 2*nq), atr, rows, r)
				if g, scale := norm(grad), norm(atr)/2; g > 1e-9*scale {
					t.Errorf("%s s=%v n=%d: ‖∇L‖ = %g at the solve, ‖AᵀR‖ = %g", name, tension, n, g, scale)
				}

				adam := []float64(nil)
				for _, p := range resamplePts(boundary, nq) {
					adam = append(adam, p.X, p.Y)
				}
				opt := optim.NewAdam(0.5)
				for it := 0; it < 300; it++ {
					mseGrad(adam, grad, rows, r)
					opt.Step(adam, grad)
				}
				if adamLoss := mseGrad(adam, grad, rows, r); loss > adamLoss*(1+1e-12) {
					t.Errorf("%s s=%v n=%d: solve loss %v above Adam's %v", name, tension, n, loss, adamLoss)
				}
			}
		}
	}
}

// mseGrad returns the mean squared distance between the spline samples
// A·Q and the reference points r, and writes the gradient of the summed
// squared distance, 2Aᵀ(AQ − R), into grad. Q is flattened [x0 y0 x1 y1 …].
func mseGrad(q, grad []float64, rows []spline.SampleWeights, r []geom.Pt) float64 {
	nq := len(q) / 2
	clear(grad)
	loss := 0.0
	for j, row := range rows {
		var fx, fy float64
		for c := 0; c < 4; c++ {
			i := (row.Seg - 1 + c + nq) % nq
			fx += row.W[c] * q[2*i]
			fy += row.W[c] * q[2*i+1]
		}
		dx, dy := fx-r[j].X, fy-r[j].Y
		loss += dx*dx + dy*dy
		for c := 0; c < 4; c++ {
			i := (row.Seg - 1 + c + nq) % nq
			grad[2*i] += 2 * dx * row.W[c]
			grad[2*i+1] += 2 * dy * row.W[c]
		}
	}
	return loss / float64(len(rows))
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestFitContourSquare(t *testing.T) {
	// A square boundary with many samples: fit should track the corners to
	// within a few nm.
	sq := geom.Rect{Min: geom.P(100, 100), Max: geom.P(300, 300)}.Poly().Resample(160)
	cfg := DefaultConfig()
	ctrl, _ := FitContour(sq, cfg)
	fitted := spline.NewCurve(ctrl, cfg.Tension).Sample(8)
	want := 200.0 * 200.0
	if math.Abs(fitted.Area()-want)/want > 0.03 {
		t.Errorf("fitted square area = %v, want ~%v", fitted.Area(), want)
	}
}

func TestFitMaskFromBinaryImage(t *testing.T) {
	g := raster.Grid{Size: 128, Pitch: 4}
	bin := raster.NewBinary(g)
	// Two filled discs.
	for _, c := range []geom.Pt{{X: 120, Y: 120}, {X: 380, Y: 380}} {
		for y := 0; y < g.Size; y++ {
			for x := 0; x < g.Size; x++ {
				if g.ToWorld(float64(x), float64(y)).Dist(c) <= 60 {
					bin.Set(x, y, 1)
				}
			}
		}
	}
	shapes := FitMask(bin, DefaultConfig())
	if len(shapes) != 2 {
		t.Fatalf("fitted %d shapes, want 2", len(shapes))
	}
	for i, s := range shapes {
		if s.Hole {
			t.Errorf("shape %d flagged as hole", i)
		}
		area := spline.NewCurve(s.Ctrl, DefaultConfig().Tension).Sample(8).Area()
		want := math.Pi * 60 * 60
		if math.Abs(area-want)/want > 0.1 {
			t.Errorf("shape %d area = %v, want ~%v", i, area, want)
		}
	}
}

func TestFitMaskDetectsHoles(t *testing.T) {
	g := raster.Grid{Size: 96, Pitch: 4}
	bin := raster.NewBinary(g)
	for y := 5; y < 90; y++ {
		for x := 5; x < 90; x++ {
			bin.Set(x, y, 1)
		}
	}
	for y := 40; y < 56; y++ {
		for x := 40; x < 56; x++ {
			bin.Set(x, y, 0)
		}
	}
	shapes := FitMask(bin, DefaultConfig())
	holes := 0
	for _, s := range shapes {
		if s.Hole {
			holes++
		}
	}
	if len(shapes) != 2 || holes != 1 {
		t.Errorf("shapes = %d, holes = %d", len(shapes), holes)
	}
}

func TestFitMaskSkipsSpecks(t *testing.T) {
	g := raster.Grid{Size: 64, Pitch: 4}
	bin := raster.NewBinary(g)
	bin.Set(10, 10, 1) // single-pixel speck
	if shapes := FitMask(bin, DefaultConfig()); len(shapes) != 0 {
		t.Errorf("speck fitted: %d shapes", len(shapes))
	}
}

func TestResampleCount(t *testing.T) {
	b := circleBoundary(geom.P(0, 0), 30, 90)
	if got := resamplePts(b, 20); len(got) != 20 {
		t.Errorf("resample = %d points", len(got))
	}
}
