// Package spline implements the cardinal (tension-parameterised Catmull–Rom)
// splines that CardOPC uses to connect mask control points (paper Eq. 2), as
// well as cubic Bézier splines for the ablation study (paper §IV-D).
//
// A cardinal spline segment between control points P[i] and P[i+1] is the
// cubic
//
//	p(t) = [1 t t² t³] · S_card · [P[i-1] P[i] P[i+1] P[i+2]]ᵀ ,  t∈[0,1]
//
// with the basis matrix
//
//	S_card = ⎡ 0    1     0     0 ⎤
//	         ⎢-s    0     s     0 ⎥
//	         ⎢2s   s-3   3-2s  -s ⎥
//	         ⎣-s   2-s   s-2    s ⎦
//
// where s is the tension parameter. Tangents (Eq. 8), second derivatives
// (Eq. 10), normals and curvature (Eq. 9) are all analytic; the package
// exposes them directly so edge-displacement estimation and mask rule
// checking stay cheap.
package spline

import (
	"math"

	"cardopc/internal/geom"
)

// DefaultTension is the tension s = 0.6 used by every experiment in the
// paper.
const DefaultTension = 0.6

// Basis is the 4×4 cardinal basis matrix S_card for a given tension, stored
// row-major: p(t) = Σ_r t^r Σ_c Basis[r][c]·P[c].
type Basis [4][4]float64

// NewBasis returns S_card for tension s (paper Eq. 2).
func NewBasis(s float64) Basis {
	return Basis{
		{0, 1, 0, 0},
		{-s, 0, s, 0},
		{2 * s, s - 3, 3 - 2*s, -s},
		{-s, 2 - s, s - 2, s},
	}
}

// Weights returns the four control-point weights of p(t): the row vector
// [1 t t² t³]·S_card. The spline is linear in the control points, so these
// weights are also ∂p(t)/∂P, the entries of the linear map that the ILT
// fitting algorithm (Algorithm 1) solves for.
func (b *Basis) Weights(t float64) [4]float64 {
	t2 := t * t
	t3 := t2 * t
	var w [4]float64
	for c := 0; c < 4; c++ {
		w[c] = b[0][c] + t*b[1][c] + t2*b[2][c] + t3*b[3][c]
	}
	return w
}

// DerivWeights returns the control-point weights of p'(t): [0 1 2t 3t²]·S_card
// (paper Eq. 8a).
func (b *Basis) DerivWeights(t float64) [4]float64 {
	var w [4]float64
	for c := 0; c < 4; c++ {
		w[c] = b[1][c] + 2*t*b[2][c] + 3*t*t*b[3][c]
	}
	return w
}

// SecondDerivWeights returns the control-point weights of p”(t):
// [0 0 2 6t]·S_card (paper Eq. 10).
func (b *Basis) SecondDerivWeights(t float64) [4]float64 {
	var w [4]float64
	for c := 0; c < 4; c++ {
		w[c] = 2*b[2][c] + 6*t*b[3][c]
	}
	return w
}

func combine(w [4]float64, p0, p1, p2, p3 geom.Pt) geom.Pt {
	return geom.Pt{
		X: w[0]*p0.X + w[1]*p1.X + w[2]*p2.X + w[3]*p3.X,
		Y: w[0]*p0.Y + w[1]*p1.Y + w[2]*p2.Y + w[3]*p3.Y,
	}
}

// Curve is a closed cardinal-spline loop through the control points Ctrl.
// Segment i spans Ctrl[i] → Ctrl[i+1] and uses the cyclic neighbourhood
// Ctrl[i-1..i+2].
type Curve struct {
	Ctrl  []geom.Pt
	basis Basis
}

// NewCurve builds a closed cardinal-spline loop with the given tension. The
// control-point slice is referenced, not copied, so callers may mutate
// control points between evaluations (as the OPC correction loop does).
func NewCurve(ctrl []geom.Pt, tension float64) *Curve {
	return &Curve{Ctrl: ctrl, basis: NewBasis(tension)}
}

// Segments returns the number of spline segments (equal to the number of
// control points for a closed loop).
func (c *Curve) Segments() int { return len(c.Ctrl) }

func (c *Curve) quad(i int) (p0, p1, p2, p3 geom.Pt) {
	n := len(c.Ctrl)
	return c.Ctrl[((i-1)%n+n)%n], c.Ctrl[i%n], c.Ctrl[(i+1)%n], c.Ctrl[(i+2)%n]
}

// At evaluates the point on segment i at parameter t ∈ [0,1] (paper Eq. 2).
func (c *Curve) At(i int, t float64) geom.Pt {
	p0, p1, p2, p3 := c.quad(i)
	return combine(c.basis.Weights(t), p0, p1, p2, p3)
}

// Deriv evaluates p'(t) on segment i (paper Eq. 8a).
func (c *Curve) Deriv(i int, t float64) geom.Pt {
	p0, p1, p2, p3 := c.quad(i)
	return combine(c.basis.DerivWeights(t), p0, p1, p2, p3)
}

// SecondDeriv evaluates p”(t) on segment i (paper Eq. 10).
func (c *Curve) SecondDeriv(i int, t float64) geom.Pt {
	p0, p1, p2, p3 := c.quad(i)
	return combine(c.basis.SecondDerivWeights(t), p0, p1, p2, p3)
}

// Normal returns the unit normal n(t) = (-ḡ_y, ḡ_x) on segment i (paper
// Eq. 8b-c). For a counter-clockwise loop this is the outward... left normal
// of the travel direction, which points away from the enclosed region when
// the loop is clockwise and into it when counter-clockwise; OPC code
// normalises orientation so that Normal points outward.
func (c *Curve) Normal(i int, t float64) geom.Pt {
	g := c.Deriv(i, t).Unit()
	return geom.Pt{X: -g.Y, Y: g.X}
}

// Curvature returns the signed curvature κ(t) on segment i (paper Eq. 9):
//
//	κ = (p'_x·p''_y − p'_y·p''_x) / ‖p'‖³ .
func (c *Curve) Curvature(i int, t float64) float64 {
	d := c.Deriv(i, t)
	dd := c.SecondDeriv(i, t)
	den := math.Pow(d.Norm(), 3)
	if den == 0 {
		return 0
	}
	return d.Cross(dd) / den
}

// Sample returns perSeg points per segment sampled evenly in t over the
// whole closed loop, as a polygon. This is the "connect the control points"
// step (paper Fig. 2 step ③). perSeg must be >= 1.
func (c *Curve) Sample(perSeg int) geom.Polygon {
	n := len(c.Ctrl)
	out := make(geom.Polygon, 0, n*perSeg)
	for i := 0; i < n; i++ {
		p0, p1, p2, p3 := c.quad(i)
		for k := 0; k < perSeg; k++ {
			t := float64(k) / float64(perSeg)
			out = append(out, combine(c.basis.Weights(t), p0, p1, p2, p3))
		}
	}
	return out
}

// SampleInto appends the loop samples to dst and returns it, reusing dst's
// capacity. Semantics match Sample.
func (c *Curve) SampleInto(dst geom.Polygon, perSeg int) geom.Polygon {
	n := len(c.Ctrl)
	dst = dst[:0]
	for i := 0; i < n; i++ {
		p0, p1, p2, p3 := c.quad(i)
		for k := 0; k < perSeg; k++ {
			t := float64(k) / float64(perSeg)
			dst = append(dst, combine(c.basis.Weights(t), p0, p1, p2, p3))
		}
	}
	return dst
}

// InterpolateWeights returns, for each of count evenly spread loop
// parameters, the segment index and the four basis weights. Because the
// spline is linear in its control points, these weights define the exact
// sparse linear map F(Q) = A·Q whose least-squares problem Algorithm 1
// solves.
func InterpolateWeights(n int, tension float64, count int) []SampleWeights {
	b := NewBasis(tension)
	out := make([]SampleWeights, count)
	for j := 0; j < count; j++ {
		u := float64(j) * float64(n) / float64(count)
		i := int(u)
		if i >= n {
			i = n - 1
		}
		out[j] = SampleWeights{Seg: i, W: b.Weights(u - float64(i))}
	}
	return out
}

// SampleWeights is one row of the linear interpolation operator: the sample
// equals Σ_c W[c] · Ctrl[(Seg-1+c) mod n].
type SampleWeights struct {
	Seg int
	W   [4]float64
}
