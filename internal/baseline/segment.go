// Package baseline implements the comparison methods of the paper's
// experiments that can be reproduced deterministically without trained
// models:
//
//   - SegmentOPC — conventional Manhattan model-based segment OPC standing
//     in for Calibre's OPC (Tables I–III), built on the same dissection and
//     EPE-feedback machinery as CardOPC but moving rectilinear segments.
//   - DiffOPC — a differentiable edge-based OPC proxy (ref [12]): segment
//     offsets updated from the analytic adjoint gradient of the imaging
//     model rather than from per-probe EPE.
//   - CircleOPC — a curvilinear-ILT proxy for CircleOpt (ref [49]):
//     pixel ILT followed by a deliberately low-degree-of-freedom spline fit
//     that emulates circle/arc-constrained mask writing.
//
// The deep-learning baselines (DAMO, RL-OPC, CAMO) are not re-trained; the
// experiment harness reports their paper numbers as reference columns.
package baseline

import (
	"math"

	"cardopc/internal/core"
	"cardopc/internal/geom"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
)

// SegConfig tunes the Manhattan segment OPC baseline.
type SegConfig struct {
	// CornerSegLen / UniformSegLen mirror CardOPC's dissection lengths.
	CornerSegLen, UniformSegLen float64
	// Step is the inverse-Jacobian gain: segments move -Step·EPE per
	// iteration, capped at MoveCap.
	Step float64
	// MoveCap bounds the per-iteration move of one segment.
	MoveCap float64
	// Iterations, DecayAt, DecayFactor follow the paper's schedules.
	Iterations  int
	DecayAt     []int
	DecayFactor float64
	// SmoothWindow averages neighbouring segment moves (multi-segment
	// solver emulation).
	SmoothWindow int
	// MaxOffset bounds the per-segment bias.
	MaxOffset float64
	// EPETol is the convergence deadband.
	EPETol float64
	// ProbeSpacing places the conventional EPE measure points driving the
	// feedback, exactly as CardOPC does (<= 0: one per edge centre).
	ProbeSpacing float64
	// SRAF configures rule-based assist insertion (same rules as CardOPC).
	SRAF core.SRAFConfig
}

// SegViaConfig returns via-layer settings matching the paper's Calibre runs
// (20 iterations is the paper's large-scale Calibre setting; via/metal use
// 32 to match CardOPC's budget).
func SegViaConfig() SegConfig {
	return SegConfig{
		CornerSegLen:  20,
		UniformSegLen: 30,
		Step:          1,
		MoveCap:       10,
		Iterations:    32,
		DecayAt:       []int{16},
		DecayFactor:   0.5,
		SmoothWindow:  1,
		MaxOffset:     20,
		EPETol:        0.15,
		SRAF:          core.ViaConfig().SRAF,
	}
}

// SegMetalConfig returns metal-layer settings.
func SegMetalConfig() SegConfig {
	cfg := SegViaConfig()
	cfg.CornerSegLen = 30
	cfg.UniformSegLen = 60
	cfg.ProbeSpacing = 60
	cfg.MaxOffset = 35
	cfg.SRAF.Enable = false
	return cfg
}

// SegLargeConfig returns the large-scale settings (Calibre runs 20
// iterations in the paper's §IV-B).
func SegLargeConfig() SegConfig {
	cfg := SegMetalConfig()
	cfg.CornerSegLen = 40
	cfg.UniformSegLen = 40
	cfg.MaxOffset = 45
	cfg.Iterations = 20
	cfg.DecayAt = []int{10}
	return cfg
}

// frag is one movable rectilinear segment of a shape boundary.
type frag struct {
	a, b    geom.Pt // endpoints on the target edge
	probe   geom.Pt // conventional measure point driving this fragment
	normal  geom.Pt // outward normal
	offset  float64 // current bias along the normal
	epe     float64
	prevEPE float64
	damp    float64
}

// segShape is one target polygon's fragment list.
type segShape struct {
	frags []frag
}

// poly reconstructs the displaced rectilinear outline: each fragment's
// endpoints shift by offset·normal, the walk through the displaced
// endpoints creates the jogs between differently biased segments, and at
// polygon corners (where consecutive fragments have different normals) an
// L-jog point displaced by both offsets keeps the outline rectilinear.
func (s *segShape) poly() geom.Polygon {
	n := len(s.frags)
	out := make(geom.Polygon, 0, 3*n)
	for i, f := range s.frags {
		d := f.normal.Mul(f.offset)
		a := f.a.Add(d)
		b := f.b.Add(d)
		out = append(out, a, b)
		next := s.frags[(i+1)%n]
		if next.normal != f.normal && next.a == f.b {
			corner := f.b.Add(d).Add(next.normal.Mul(next.offset))
			if corner != b && corner != next.a.Add(next.normal.Mul(next.offset)) {
				out = append(out, corner)
			}
		}
	}
	return out
}

// SegResult reports one segment-OPC run.
type SegResult struct {
	// MaskPolys are the corrected main-pattern outlines plus any SRAFs.
	MaskPolys []geom.Polygon
	// History is Σ|EPE| over fragment probes per iteration.
	History []float64
}

// SegmentOPC runs conventional Manhattan model-based OPC: dissect, then per
// iteration simulate and bias each segment along its outward normal by the
// measured EPE, with neighbour smoothing and step decay.
func SegmentOPC(sim *litho.Simulator, targets []geom.Polygon, cfg SegConfig) *SegResult {
	shapes := make([]*segShape, 0, len(targets))
	for _, t := range targets {
		t = t.Clone().EnsureCCW()
		s := &segShape{}
		for i := range t {
			e := t.Edge(i)
			out := e.Normal().Mul(-1)
			measures := core.EdgeMeasurePoints(e, cfg.ProbeSpacing)
			for _, d := range core.DissectEdge(e, cfg.CornerSegLen, cfg.UniformSegLen) {
				s.frags = append(s.frags, frag{
					a: d.Seg.A, b: d.Seg.B, normal: out, damp: 1,
					probe: core.NearestPt(measures, d.Seg.Mid()),
				})
			}
		}
		if len(s.frags) >= 3 {
			shapes = append(shapes, s)
		}
	}
	var srafs []geom.Polygon
	if cfg.SRAF.Enable {
		srafs = core.InsertSRAFs(targets, cfg.SRAF)
	}

	res := &SegResult{}
	field := raster.NewField(sim.Grid())
	paint := raster.NewPainter(field)
	ith := sim.Config().Threshold
	mcfg := metrics.EPEConfig{SearchNM: 60, ThresholdNM: 15, Ith: ith}

	for it := 0; it < cfg.Iterations; it++ {
		step := cfg.Step
		for _, m := range cfg.DecayAt {
			if it >= m {
				step *= cfg.DecayFactor
			}
		}
		// Render current mask.
		paint.Clear()
		for _, s := range shapes {
			paint.Fill(s.poly(), 4)
		}
		for _, sr := range srafs {
			paint.Fill(sr, 4)
		}
		paint.Clamp01()
		aerial := sim.Aerial(field)

		total := 0.0
		for _, s := range shapes {
			probes := make([]metrics.Probe, len(s.frags))
			for i, f := range s.frags {
				probes[i] = metrics.Probe{Pos: f.probe, Normal: f.normal}
			}
			r := metrics.MeasureEPE(aerial, probes, mcfg)
			moves := make([]float64, len(s.frags))
			for i := range s.frags {
				e := r.PerProbe[i]
				f := &s.frags[i]
				// Same adaptive damping as CardOPC: back off the local
				// gain when the feedback sign flips outside the noise band.
				if f.prevEPE*e < 0 && math.Abs(e) > 2*cfg.EPETol {
					f.damp *= 0.6
				} else if f.damp < 1 {
					f.damp = math.Min(1, f.damp*1.1)
				}
				f.prevEPE = e
				f.epe = e
				total += math.Abs(e)
				if math.Abs(e) <= cfg.EPETol {
					continue
				}
				mag := math.Abs(e) * step * f.damp
				if mag > cfg.MoveCap {
					mag = cfg.MoveCap
				}
				if e > 0 {
					moves[i] = -mag
				} else {
					moves[i] = mag
				}
			}
			smoothScalar(moves, cfg.SmoothWindow)
			for i := range s.frags {
				o := s.frags[i].offset + moves[i]
				if o > cfg.MaxOffset {
					o = cfg.MaxOffset
				} else if o < -cfg.MaxOffset {
					o = -cfg.MaxOffset
				}
				s.frags[i].offset = o
			}
		}
		res.History = append(res.History, total)
	}

	for _, s := range shapes {
		res.MaskPolys = append(res.MaskPolys, s.poly())
	}
	res.MaskPolys = append(res.MaskPolys, srafs...)
	return res
}

// smoothScalar applies the Eq. (7) weighted average to scalar moves in
// place (binomial weights over a cyclic window).
func smoothScalar(moves []float64, w int) {
	if w <= 0 || len(moves) < 2*w+1 {
		return
	}
	n := len(moves)
	src := append([]float64(nil), moves...)
	switch w {
	case 1:
		for i := 0; i < n; i++ {
			moves[i] = 0.25*src[((i-1)%n+n)%n] + 0.5*src[i] + 0.25*src[(i+1)%n]
		}
	default:
		// General binomial window.
		weights := pascalRow(2 * w)
		for i := 0; i < n; i++ {
			acc := 0.0
			for k := -w; k <= w; k++ {
				acc += weights[k+w] * src[((i+k)%n+n)%n]
			}
			moves[i] = acc
		}
	}
}

// pascalRow returns the normalised binomial row of length n+1.
func pascalRow(n int) []float64 {
	row := make([]float64, n+1)
	row[0] = 1
	for i := 1; i <= n; i++ {
		for j := i; j > 0; j-- {
			row[j] += row[j-1]
		}
	}
	sum := math.Pow(2, float64(n))
	for i := range row {
		row[i] /= sum
	}
	return row
}
