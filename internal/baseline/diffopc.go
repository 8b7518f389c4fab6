package baseline

import (
	"math"

	"cardopc/internal/core"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/litho"
	"cardopc/internal/raster"
)

// DiffConfig tunes the differentiable edge-based OPC proxy (ref [12]).
type DiffConfig struct {
	// CornerSegLen / UniformSegLen set the dissection.
	CornerSegLen, UniformSegLen float64
	// LR is the learning rate on segment offsets.
	LR float64
	// Iterations of gradient descent.
	Iterations int
	// ResistSteepness is the sigmoid slope of the differentiable resist.
	ResistSteepness float64
	// MaxOffset bounds the per-segment bias.
	MaxOffset float64
	// SmoothWindow averages neighbouring segment gradients.
	SmoothWindow int
}

// DefaultDiffConfig returns the settings used for the Fig. 7 comparison.
func DefaultDiffConfig() DiffConfig {
	return DiffConfig{
		CornerSegLen:    30,
		UniformSegLen:   60,
		LR:              4,
		Iterations:      32,
		ResistSteepness: 30,
		MaxOffset:       35,
		SmoothWindow:    1,
	}
}

// DiffOPC runs gradient-driven segment OPC: the L2 loss between the
// sigmoid-resist print and the target is backpropagated through the imaging
// model (adjoint, see litho.GradientFromCacheInto), and each segment's offset
// descends the loss gradient integrated along the segment. This mirrors
// DiffOPC's edge-variable formulation without its CUDA machinery.
func DiffOPC(sim *litho.Simulator, targets []geom.Polygon, cfg DiffConfig) *SegResult {
	shapes := make([]*segShape, 0, len(targets))
	for _, t := range targets {
		t = t.Clone().EnsureCCW()
		s := &segShape{}
		for i := range t {
			e := t.Edge(i)
			out := e.Normal().Mul(-1)
			for _, d := range core.DissectEdge(e, cfg.CornerSegLen, cfg.UniformSegLen) {
				s.frags = append(s.frags, frag{a: d.Seg.A, b: d.Seg.B, normal: out})
			}
		}
		if len(s.frags) >= 3 {
			shapes = append(shapes, s)
		}
	}

	g := sim.Grid()
	target := ilt.Target(g, targets)

	res := &SegResult{}
	field := raster.NewField(g)
	paint := raster.NewPainter(field)
	ith := sim.Config().Threshold
	beta := cfg.ResistSteepness

	// Steady-state buffers, reused every iteration; the forward cache's
	// per-kernel grids come from (and return to) the fft pool.
	aerial := raster.NewField(g)
	G := make([]float64, len(field.Data))
	gm := make([]float64, len(field.Data))
	gmField := raster.Field{Grid: g, Data: gm}
	cache := sim.NewForwardCache()
	defer cache.Release()

	for it := 0; it < cfg.Iterations; it++ {
		paint.Clear()
		for _, s := range shapes {
			paint.Fill(s.poly(), 4)
		}
		paint.Clamp01()
		sim.AerialWithCacheInto(aerial, cache, field)

		loss := 0.0
		for i, I := range aerial.Data {
			z := 1 / (1 + math.Exp(-beta*(I-ith)))
			d := z - target.Data[i]
			loss += d * d
			G[i] = 2 * d * beta * z * (1 - z)
		}
		res.History = append(res.History, loss)
		sim.GradientFromCacheInto(gm, cache, G)

		// Move each segment against the loss gradient sampled along its
		// current (displaced) position: moving a boundary outward adds mask
		// transmission, so ∂L/∂offset ≈ ∫ gm over the swept band.
		for _, s := range shapes {
			moves := make([]float64, len(s.frags))
			for i, f := range s.frags {
				d := f.normal.Mul(f.offset)
				a := f.a.Add(d)
				b := f.b.Add(d)
				samples := int(a.Dist(b)/g.Pitch) + 1
				acc := 0.0
				for k := 0; k < samples; k++ {
					t := (float64(k) + 0.5) / float64(samples)
					acc += gmField.Bilinear(a.Lerp(b, t))
				}
				// Gradient per nm of offset: band length × mean gm.
				moves[i] = -cfg.LR * acc / float64(samples)
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
	}

	for _, s := range shapes {
		res.MaskPolys = append(res.MaskPolys, s.poly())
	}
	return res
}
