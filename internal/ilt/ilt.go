// Package ilt implements a pixel-based inverse lithography engine in the
// style of OpenILT / MOSAIC (paper refs [21], [36]): the mask is a
// sigmoid-relaxed pixel field optimised by gradient descent through the
// differentiable imaging + resist model. It is the substrate for the
// paper's ILT–OPC hybrid flow (§III-G) and the Fig. 7 comparison.
package ilt

import (
	"context"
	"math"
	"time"

	"cardopc/internal/geom"
	"cardopc/internal/litho"
	"cardopc/internal/obs"
	"cardopc/internal/optim"
	"cardopc/internal/raster"
)

// Config tunes the ILT solver.
type Config struct {
	// Iterations of gradient descent.
	Iterations int
	// LR is the Adam learning rate on the latent pixels.
	LR float64
	// MaskSteepness is the sigmoid slope relaxing latent θ to mask
	// transmission M = σ(MaskSteepness·θ).
	MaskSteepness float64
	// ResistSteepness is the sigmoid slope of the resist model
	// Z = σ(ResistSteepness·(I - Ith)).
	ResistSteepness float64
	// InitInside / InitOutside are the initial latent values for pixels
	// inside and outside the target.
	InitInside, InitOutside float64
	// AreaPenalty is the mask-complexity regulariser weight: it adds
	// AreaPenalty·Σ M to the loss, shrinking transmission the imaging
	// objective does not need (sub-printing junk is otherwise loss-free
	// under a sharp resist model).
	AreaPenalty float64
}

// DefaultConfig returns solver settings tuned on this repository's imager:
// a sharp resist sigmoid (β=120) concentrates the loss at the printed
// contour, and the matching low learning rate keeps Adam stable. (OpenILT's
// softer β=30/lr=0.6 plateaus ~6x higher on the binary-L2 metric here.)
func DefaultConfig() Config {
	return Config{
		Iterations:      200,
		LR:              0.2,
		MaskSteepness:   4,
		ResistSteepness: 120,
		InitInside:      1,
		InitOutside:     -1,
		AreaPenalty:     0.005,
	}
}

// Result is one ILT run.
type Result struct {
	// Mask is the final continuous mask transmission in [0,1].
	Mask *raster.Field
	// BinaryMask is Mask thresholded at 0.5.
	BinaryMask *raster.Binary
	// Loss is the final L2 loss (pixel count scale).
	Loss float64
	// History records the loss at every iteration.
	History []float64
}

// Solver runs pixel ILT against a nominal-condition simulator.
type Solver struct {
	cfg    Config
	sim    *litho.Simulator
	target *raster.Field // 0/1 target image
	theta  []float64
}

// NewSolver initialises the latent mask from the target image: latent
// pixels start at InitInside where the target is drawn and InitOutside
// elsewhere.
func NewSolver(sim *litho.Simulator, target *raster.Field, cfg Config) *Solver {
	s := &Solver{cfg: cfg, sim: sim, target: target}
	s.theta = make([]float64, len(target.Data))
	for i, v := range target.Data {
		if v >= 0.5 {
			s.theta[i] = cfg.InitInside
		} else {
			s.theta[i] = cfg.InitOutside
		}
	}
	return s
}

// sigmoid is the logistic function.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// maskFromTheta materialises the continuous mask M = σ(k·θ).
func (s *Solver) maskFromTheta() *raster.Field {
	return s.maskFromThetaInto(raster.NewField(s.target.Grid))
}

// maskFromThetaInto is maskFromTheta overwriting m (the descent loop's
// reusable mask buffer).
func (s *Solver) maskFromThetaInto(m *raster.Field) *raster.Field {
	for i, th := range s.theta {
		m.Data[i] = sigmoid(s.cfg.MaskSteepness * th)
	}
	return m
}

// Run optimises the latent mask and returns the result.
func (s *Solver) Run() *Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cooperative cancellation, mirroring
// core.Optimizer.RunContext: the context is checked between descent
// iterations — the boundary where the forward cache's pooled grids are
// quiescent — so a cancelled solve leaks nothing. On cancellation it
// returns the partial result (mask materialised from the latest θ,
// history up to the interrupted iteration) alongside ctx.Err().
func (s *Solver) RunContext(ctx context.Context) (*Result, error) {
	sc := obs.ScopeFromContext(ctx) // hoisted out of the descent loop
	defer sc.Start("ilt.run").End(obs.A("iterations", s.cfg.Iterations))
	opt := optim.NewAdam(s.cfg.LR)
	ith := s.sim.Config().Threshold
	beta := s.cfg.ResistSteepness
	var history []float64
	var runErr error

	// Steady-state buffers: the mask/aerial fields, the loss gradient G,
	// the adjoint gm and the forward cache are allocated once and reused
	// every iteration — the cache's per-kernel amplitude grids come from
	// (and return to) the fft pool.
	grad := make([]float64, len(s.theta))
	mask := raster.NewField(s.target.Grid)
	aerial := raster.NewField(s.target.Grid)
	G := make([]float64, len(s.theta))
	gm := make([]float64, len(s.theta))
	cache := s.sim.NewForwardCache()
	defer cache.Release()
	for it := 0; it < s.cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			sc.Count("ilt.runs.cancelled", 1)
			runErr = err
			break
		}
		span := sc.Start("ilt.step")
		t0 := time.Time{}
		if span.Enabled() {
			t0 = time.Now()
		}
		s.maskFromThetaInto(mask)
		s.sim.AerialWithCacheInto(aerial, cache, mask)

		// Resist + loss, and G = ∂L/∂I.
		loss := 0.0
		for i, I := range aerial.Data {
			z := sigmoid(beta * (I - ith))
			zt := s.target.Data[i]
			d := z - zt
			loss += d * d
			G[i] = 2 * d * beta * z * (1 - z)
		}
		history = append(history, loss)

		s.sim.GradientFromCacheInto(gm, cache, G)
		// Chain through M = σ(k·θ), plus the area regulariser ∂(λΣM)/∂M = λ.
		for i := range grad {
			m := mask.Data[i]
			grad[i] = (gm[i] + s.cfg.AreaPenalty) * s.cfg.MaskSteepness * m * (1 - m)
		}
		opt.Step(s.theta, grad)
		sc.Count("ilt.iterations", 1)
		sc.SetGauge("ilt.loss", loss)
		if span.Enabled() {
			sc.Emit(&obs.ILTIter{Iter: it, Loss: loss, DurMS: time.Since(t0).Seconds() * 1e3})
		}
		span.End(obs.A("iter", it), obs.A("loss", loss))
	}

	final := s.maskFromTheta()
	res := &Result{
		Mask:       final,
		BinaryMask: final.Threshold(0.5),
		History:    history,
	}
	if len(history) > 0 {
		res.Loss = history[len(history)-1]
	}
	return res, runErr
}

// Target rasterises the target polygons at 2× supersampling and binarises
// the coverage at 0.5: the 0/1 image every ILT run optimises against.
func Target(g raster.Grid, polys []geom.Polygon) *raster.Field {
	t := raster.Rasterize(g, polys, 2)
	for i, v := range t.Data {
		if v >= 0.5 {
			t.Data[i] = 1
		} else {
			t.Data[i] = 0
		}
	}
	return t
}

// Run is the convenience entry point: target polygons rasterised by the
// caller into a 0/1 field (see Target).
func Run(sim *litho.Simulator, target *raster.Field, cfg Config) *Result {
	return NewSolver(sim, target, cfg).Run()
}

// RunContext is Run with cooperative cancellation; see
// Solver.RunContext for the partial-result contract.
func RunContext(ctx context.Context, sim *litho.Simulator, target *raster.Field, cfg Config) (*Result, error) {
	return NewSolver(sim, target, cfg).RunContext(ctx)
}
