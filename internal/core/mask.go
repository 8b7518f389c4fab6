package core

import (
	"cardopc/internal/geom"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

// Shape is one closed mask pattern: a control-point loop plus its anchors
// (the control points' initial positions on the target boundary, where EPE
// is measured) and fixed outward normals derived from the target geometry.
type Shape struct {
	// Ctrl are the current control points (mutated by correction).
	Ctrl []geom.Pt
	// Anchor are the initial control-point positions on the target.
	Anchor []geom.Pt
	// Normal are outward unit normals at the anchors.
	Normal []geom.Pt
	// SRAF marks sub-resolution assist features: rasterised with the mask
	// but not corrected and not EPE-checked.
	SRAF bool
	// Hole marks a hole loop (fitted from an ILT mask's interior holes):
	// it is subtracted during rasterisation instead of added.
	Hole bool
	// Corner marks corner control points: they follow their neighbours
	// through move smoothing instead of chasing their own (unresolvable)
	// corner EPE.
	Corner []bool

	kind     spline.Kind
	tension  float64
	loop     spline.Loop
	buf      geom.Polygon // sampling scratch
	epe      []float64    // last measured EPE per control point
	prevEPE  []float64    // EPE of the previous iteration (for damping)
	damp     []float64    // per-point adaptive gain damping
	probes   []metrics.Probe
	moves    []geom.Pt // per-step move-vector scratch (Eq. 6)
	smoothed []geom.Pt // per-step smoothing scratch (Eq. 7)
}

// NewShape builds a mask shape over ctrl. The loop shares the ctrl slice, so
// mutating Ctrl in place moves the spline.
func NewShape(ctrl []geom.Pt, kind spline.Kind, tension float64, sraf bool) *Shape {
	s := &Shape{
		Ctrl:    ctrl,
		Anchor:  append([]geom.Pt(nil), ctrl...),
		SRAF:    sraf,
		kind:    kind,
		tension: tension,
	}
	s.loop = spline.NewLoop(kind, s.Ctrl, tension)
	s.Normal = make([]geom.Pt, len(ctrl))
	for i := range ctrl {
		s.Normal[i] = s.OutwardNormal(i)
	}
	return s
}

// Loop returns the live spline loop over the shape's control points.
func (s *Shape) Loop() spline.Loop { return s.loop }

// OutwardNormal returns the outward unit normal of the *current* spline at
// control point i. Control loops are counter-clockwise, so the outward
// direction is the negated left normal.
func (s *Shape) OutwardNormal(i int) geom.Pt {
	return s.loop.Normal(i, 0).Mul(-1)
}

// Poly samples the shape's current outline with perSeg samples per spline
// segment, reusing internal scratch. The returned polygon is valid until the
// next Poly call on the same shape.
func (s *Shape) Poly(perSeg int) geom.Polygon {
	s.buf = s.loop.SampleInto(s.buf, perSeg)
	return s.buf
}

// PolyCopy is Poly with a freshly allocated result.
func (s *Shape) PolyCopy(perSeg int) geom.Polygon {
	return s.loop.Sample(perSeg)
}

// Mask is the full curvilinear mask: every main-pattern and SRAF shape.
type Mask struct {
	Shapes []*Shape
}

// NumControlPoints returns the total number of control points (the paper's
// variable-count advantage over pixel ILT).
func (m *Mask) NumControlPoints() int {
	n := 0
	for _, s := range m.Shapes {
		n += len(s.Ctrl)
	}
	return n
}

// Polygons samples every shape into fresh polygons.
func (m *Mask) Polygons(perSeg int) []geom.Polygon {
	out := make([]geom.Polygon, len(m.Shapes))
	for i, s := range m.Shapes {
		out[i] = s.PolyCopy(perSeg)
	}
	return out
}

// MainPolygons samples only the non-SRAF shapes.
func (m *Mask) MainPolygons(perSeg int) []geom.Polygon {
	var out []geom.Polygon
	for _, s := range m.Shapes {
		if !s.SRAF {
			out = append(out, s.PolyCopy(perSeg))
		}
	}
	return out
}

// Rasterize renders the whole mask onto grid g with ss-fold supersampling.
// Hole loops are subtracted from the solid coverage.
func (m *Mask) Rasterize(g raster.Grid, perSeg, ss int) *raster.Field {
	f := raster.NewField(g)
	var holes *raster.Painter
	if m.hasHoles() {
		holes = raster.NewPainter(raster.NewField(g))
	}
	m.rasterizeInto(raster.NewPainter(f), holes, perSeg, ss)
	return f
}

// rasterizeInto renders the mask into paint's field: the solid shapes'
// coverage, clamped, less the hole loops' rendered into holes' field,
// clamped again. holes may be nil when the mask has no hole. Both
// painters clear only what they painted last time, so Optimizer.Step
// reuses them at the cost of the shapes, not the raster.
func (m *Mask) rasterizeInto(paint, holes *raster.Painter, perSeg, ss int) {
	paint.Clear()
	hasHoles := false
	for _, s := range m.Shapes {
		if s.Hole {
			if !hasHoles {
				holes.Clear()
				hasHoles = true
			}
			holes.Fill(s.Poly(perSeg), ss)
			continue
		}
		paint.Fill(s.Poly(perSeg), ss)
	}
	paint.Clamp01()
	if hasHoles {
		// Whole-raster: only fitted ILT masks have holes. A pixel no
		// solid fill wrote ends +0 again, as paint requires.
		holes.Clamp01()
		f, h := paint.Field(), holes.Field()
		for i := range f.Data {
			f.Data[i] -= h.Data[i]
		}
		f.Clamp01()
	}
}

// hasHoles reports whether the mask has a hole loop.
func (m *Mask) hasHoles() bool {
	for _, s := range m.Shapes {
		if s.Hole {
			return true
		}
	}
	return false
}

// NewMask builds the initial CardOPC mask for the target polygons: SRAF
// insertion (if enabled), dissection and control-point generation, with the
// SRAFs converted to uniform control loops for a homogeneous representation
// (paper §III-B).
func NewMask(targets []geom.Polygon, cfg Config) *Mask {
	m := &Mask{}
	for _, t := range targets {
		cps := BuildControlPoints(t, cfg)
		if len(cps) < 3 {
			continue
		}
		ctrl := make([]geom.Pt, len(cps))
		for i, cp := range cps {
			ctrl[i] = cp.Pos
		}
		sh := NewShape(ctrl, cfg.Spline, cfg.Tension, false)
		sh.Corner = make([]bool, len(cps))
		sh.probes = make([]metrics.Probe, len(cps))
		for i, cp := range cps {
			sh.Corner[i] = cp.Corner
			sh.probes[i] = cp.Probe
		}
		m.Shapes = append(m.Shapes, sh)
	}
	if cfg.SRAF.Enable {
		for _, sraf := range InsertSRAFs(targets, cfg.SRAF) {
			ctrl := UniformControlPoints(sraf, cfg.UniformSegLen)
			m.Shapes = append(m.Shapes, NewShape(ctrl, cfg.Spline, cfg.Tension, true))
		}
	}
	return m
}

// AddFittedShapes appends externally fitted control loops (e.g. from the
// ILT fitting flow) to the mask as SRAF or main shapes.
func (m *Mask) AddFittedShapes(loops [][]geom.Pt, cfg Config, sraf bool) {
	for _, ctrl := range loops {
		if len(ctrl) < 3 {
			continue
		}
		m.Shapes = append(m.Shapes, NewShape(ctrl, cfg.Spline, cfg.Tension, sraf))
	}
}

// AddHoleShapes appends fitted hole loops: rasterisation subtracts them,
// preserving the interior structure of ILT-optimised masks.
func (m *Mask) AddHoleShapes(loops [][]geom.Pt, cfg Config) {
	for _, ctrl := range loops {
		if len(ctrl) < 3 {
			continue
		}
		sh := NewShape(ctrl, cfg.Spline, cfg.Tension, false)
		sh.Hole = true
		m.Shapes = append(m.Shapes, sh)
	}
}
