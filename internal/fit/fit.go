// Package fit implements Algorithm 1 of the paper: fitting ILT-optimised
// mask images with cardinal splines. Shape boundaries are extracted with
// Suzuki border following, control points Q and reference points R are
// sampled evenly from each boundary, and Q minimises the mean-squared
// distance between the spline interpolation F(Q) and R. Because the
// cardinal spline is linear in its control points, F(Q) = A·Q and that
// minimiser is one linear least-squares solve: where the paper runs Adam
// on the loss, FitContour solves the normal equations directly.
package fit

import (
	"math"

	"cardopc/internal/geom"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

// Config tunes the fitting algorithm.
type Config struct {
	// RQ is r_Q: the fraction of boundary points kept as control points.
	RQ float64
	// RR is r_R: the fraction of boundary points kept as reference points.
	RR float64
	// Tension is the cardinal spline tension.
	Tension float64
	// MinBoundary drops shapes whose traced boundary has fewer points
	// (noise specks that the MRC area rule would delete anyway).
	MinBoundary int
	// MinCtrl floors the number of control points per shape.
	MinCtrl int
}

// DefaultConfig returns the fitting settings used by the hybrid experiments.
func DefaultConfig() Config {
	return Config{
		RQ:          0.18,
		RR:          0.9,
		Tension:     spline.DefaultTension,
		MinBoundary: 8,
		MinCtrl:     6,
	}
}

// Shape is one fitted control loop.
type Shape struct {
	// Ctrl are the fitted control points.
	Ctrl []geom.Pt
	// Loss is the final mean squared fitting error (nm² per reference
	// point).
	Loss float64
	// Hole marks loops traced from hole borders.
	Hole bool
}

// FitMask extracts every shape boundary from the binary mask image with
// Suzuki border following and fits a cardinal-spline control loop to each
// (Algorithm 1, as the paper implements it with OpenCV). Hole borders are
// fitted too and flagged.
//
// Note: Suzuki traces through pixel centres, which under-covers features by
// half a pixel per side — significant for the few-pixel decorations of ILT
// masks on coarse rasters. The hybrid flow therefore prefers FitField,
// which fits sub-pixel iso-contours instead; FitMask remains for binary
// inputs and for fidelity to the cited algorithm.
func FitMask(bin *raster.Binary, cfg Config) []Shape {
	var out []Shape
	for _, c := range raster.TraceBoundaries(bin) {
		if len(c.Pts) < cfg.MinBoundary {
			continue
		}
		ctrl, loss := FitContour(c.Pts, cfg)
		out = append(out, Shape{Ctrl: ctrl, Loss: loss, Hole: c.Hole})
	}
	return out
}

// FitField fits every iso-contour of the continuous mask field at threshold
// th. Marching squares yields sub-pixel boundaries, so thin ILT decorations
// keep their true width. Hole loops are detected by orientation: the tracer
// keeps the >= th region on the *right*, so outer boundaries come out
// clockwise and holes counter-clockwise. All control loops are normalised
// to counter-clockwise.
func FitField(mask *raster.Field, th float64, cfg Config) []Shape {
	var out []Shape
	for _, poly := range raster.MarchingSquares(mask, th) {
		if len(poly) < cfg.MinBoundary {
			continue
		}
		ccw := poly.SignedArea() > 0
		hole := ccw
		if !ccw {
			poly = poly.Clone()
			poly.Reverse()
		}
		ctrl, loss := FitContour(poly, cfg)
		out = append(out, Shape{Ctrl: ctrl, Loss: loss, Hole: hole})
	}
	return out
}

// FitContour fits one closed boundary polyline (Algorithm 1 lines 5–14) and
// returns the control points that minimise the MSE loss, and that loss.
// F(Q) = A·Q, so the minimiser solves the normal equations AᵀA·Q = AᵀR.
func FitContour(boundary geom.Polygon, cfg Config) ([]geom.Pt, float64) {
	nq := int(math.Round(cfg.RQ * float64(len(boundary))))
	if nq < cfg.MinCtrl {
		nq = cfg.MinCtrl
	}
	nr := int(math.Round(cfg.RR * float64(len(boundary))))
	if nr < nq*2 {
		nr = nq * 2
	}

	// Line 7: sample R evenly from the boundary.
	r := resamplePts(boundary, nr)

	// Row j of A: F(Q)_j = Σ_c W_jc · Q_idx(j,c). Accumulate AᵀA (dense,
	// row-major) and AᵀR, which the solve turns into Q.
	rows := spline.InterpolateWeights(nq, cfg.Tension, nr)
	idx := func(row spline.SampleWeights, c int) int { return (row.Seg - 1 + c + nq) % nq }
	ata := make([]float64, nq*nq)
	q := make([]geom.Pt, nq)
	for j, row := range rows {
		for c, w := range row.W {
			ic := idx(row, c)
			q[ic] = q[ic].Add(r[j].Mul(w))
			for d, wd := range row.W {
				ata[ic*nq+idx(row, d)] += w * wd
			}
		}
	}
	choleskySolve(ata, q)

	loss := 0.0
	for j, row := range rows {
		var f geom.Pt
		for c, w := range row.W {
			f = f.Add(q[idx(row, c)].Mul(w))
		}
		loss += f.Sub(r[j]).Norm2()
	}
	return q, loss / float64(nr)
}

// choleskySolve overwrites b with x, where a·x = b for the symmetric
// positive-definite n×n matrix a (row-major, n = len(b)). It factors a in
// place as L·Lᵀ, and the x and y coordinates share the factor.
func choleskySolve(a []float64, b []geom.Pt) {
	n := len(b)
	for j := 0; j < n; j++ {
		lj := a[j*n : j*n+j]
		d := a[j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k, v := range lj {
				s -= a[i*n+k] * v
			}
			a[i*n+j] = s / d
		}
	}
	// L·y = b, then Lᵀ·x = y.
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			b[i] = b[i].Sub(b[k].Mul(a[i*n+k]))
		}
		b[i] = geom.P(b[i].X/a[i*n+i], b[i].Y/a[i*n+i])
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			b[i] = b[i].Sub(b[k].Mul(a[k*n+i]))
		}
		b[i] = geom.P(b[i].X/a[i*n+i], b[i].Y/a[i*n+i])
	}
}

// resamplePts picks n points evenly spaced by arc length along the closed
// boundary.
func resamplePts(boundary geom.Polygon, n int) []geom.Pt {
	return []geom.Pt(boundary.Resample(n))
}
