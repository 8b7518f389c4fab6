package core

import (
	"context"
	"math"
	"time"

	"cardopc/internal/geom"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// Result reports one CardOPC run.
type Result struct {
	// Mask is the optimised curvilinear mask.
	Mask *Mask
	// History holds Σ|EPE| over the control-point probes after each
	// iteration (convergence trace).
	History []float64
	// Iterations actually executed.
	Iterations int
}

// Optimizer drives the CardOPC correction loop (paper Fig. 2, §III-E)
// against a lithography simulator.
type Optimizer struct {
	cfg     Config
	sim     *litho.Simulator
	mask    *Mask
	targets []geom.Polygon

	field   *raster.Field // mask raster scratch
	holes   *raster.Field // hole-loop raster scratch, sized on the first mask with a hole
	aerial  *raster.Field // aerial image scratch
	smoothW []float64     // binomial smoothing weights for cfg.SmoothWindow

	// scope attributes the loop's telemetry to the unit of work that
	// owns this run (a cardopcd job). RunContext recovers it from the
	// context once, so Step never pays a context walk per iteration; the
	// zero value is the ambient scope (CLI runs, direct Run calls).
	scope obs.Scope
}

// NewOptimizer initialises the flow for the target polygons: SRAF insertion,
// dissection and control-point generation (Fig. 2 steps ①–②). It panics
// when cfg.Validate fails.
func NewOptimizer(sim *litho.Simulator, targets []geom.Polygon, cfg Config) *Optimizer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return NewOptimizerWithMask(sim, NewMask(targets, cfg), targets, cfg)
}

// NewOptimizerWithMask runs the correction loop over a caller-built mask —
// the entry point for the ILT-initialised flow, where the control loops
// come from fitting an ILT result instead of from dissection. Shapes whose
// probes were not assigned fall back to probing at their anchors.
func NewOptimizerWithMask(sim *litho.Simulator, mask *Mask, targets []geom.Polygon, cfg Config) *Optimizer {
	o := &Optimizer{
		cfg:     cfg,
		sim:     sim,
		mask:    mask,
		targets: targets,
		field:   raster.NewField(sim.Grid()),
		aerial:  raster.NewField(sim.Grid()),
	}
	if cfg.SmoothWindow > 0 {
		o.smoothW = binomialWeights(cfg.SmoothWindow)
	}
	return o
}

// Reset repoints the optimizer at a new mask and target set, reusing its
// raster scratch — the per-tile entry point for drivers (bigopc) that
// run many corrections over one simulator. Config and simulator are
// unchanged.
func (o *Optimizer) Reset(mask *Mask, targets []geom.Polygon) {
	o.mask = mask
	o.targets = targets
}

// Mask returns the optimizer's current mask.
func (o *Optimizer) Mask() *Mask { return o.mask }

// Run executes the configured number of correction iterations and returns
// the result.
func (o *Optimizer) Run() *Result {
	res, _ := o.RunContext(context.Background())
	return res
}

// RunContext is Run with cooperative cancellation: the context is
// checked between iterations — the boundary where every pooled FFT
// grid and workspace a Step borrowed has been returned — so a
// cancelled correction leaks nothing. On cancellation it returns the
// partial result alongside ctx.Err().
func (o *Optimizer) RunContext(ctx context.Context) (*Result, error) {
	o.scope = obs.ScopeFromContext(ctx) // hoisted: Step reads o.scope, never the ctx
	defer o.scope.Start("opc.run").End(obs.A("iterations", o.cfg.Iterations))
	res := &Result{Mask: o.mask}
	for it := 0; it < o.cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			o.scope.Count("opc.runs.cancelled", 1)
			return res, err
		}
		sum := o.Step(it)
		res.History = append(res.History, sum)
		res.Iterations++
	}
	return res, nil
}

// Step performs one correction iteration (Fig. 2 steps ③–⑤) with moving
// distance decayed per the schedule, and returns Σ|EPE| over all control
// points before the move.
//
//cardopc:noalloc
func (o *Optimizer) Step(it int) float64 {
	span := o.scope.Start("opc.step")
	t0 := time.Time{}
	if span.Enabled() {
		t0 = time.Now()
	}
	step := o.cfg.stepAt(it)

	// ③ Connect control points and ④ simulate.
	rsp := o.scope.Start("opc.rasterize")
	o.mask.rasterizeInto(o.field, o.holeScratch(), o.cfg.SamplesPerSeg, 4)
	rsp.End()
	aerial := o.sim.AerialInto(o.aerial, o.field)
	ith := o.sim.Config().Threshold

	// ⑤ Estimate edge displacement per control point and move.
	total := 0.0
	maxMove := 0.0
	clamped, points := 0, 0
	for _, s := range o.mask.Shapes {
		if s.SRAF {
			continue
		}
		moves := o.shapeMoves(s, aerial, ith, step)
		smoothed := o.smoothMoves(s, moves)
		for i := range s.Ctrl {
			p, hit := clampDrift(s.Ctrl[i].Add(smoothed[i]), s.Anchor[i], o.cfg.MaxDrift)
			if hit {
				clamped++
			}
			if d := p.Sub(s.Ctrl[i]).Norm(); d > maxMove {
				maxMove = d
			}
			s.Ctrl[i] = p
		}
		points += len(s.Ctrl)
		for _, e := range s.epe {
			total += math.Abs(e)
		}
	}
	o.scope.Count("opc.iterations", 1)
	o.scope.Count("opc.moves.clamped", int64(clamped))
	o.scope.SetGauge("opc.loss", total)
	if span.Enabled() {
		o.scope.Emit(&obs.OPCIter{
			Iter:      it,
			Loss:      total,
			MaxMoveNM: maxMove,
			Clamped:   clamped,
			Points:    points,
			DurMS:     time.Since(t0).Seconds() * 1e3,
		})
	}
	span.End(obs.A("iter", it), obs.A("loss", total))
	return total
}

// shapeMoves computes the per-control-point move vectors Δd_i·n_i of one
// shape. The EPE e_i is measured at the control point's anchor along the
// anchor's outward normal (sub-pixel threshold crossing of the aerial
// image); the move is -min(|e|,step)·sign(e) along the *current* spline
// normal (paper Eq. 6 diagonal solver + Eq. 8 normal directions).
// The move buffer and the EPE/damping state live on the Shape as
// scratch (ensureStepScratch), so the steady-state loop allocates
// nothing per iteration.
//
//cardopc:noalloc
func (o *Optimizer) shapeMoves(s *Shape, aerial *raster.Field, ith, step float64) []geom.Pt {
	n := len(s.Ctrl)
	s.ensureStepScratch(n)
	moves := s.moves
	clear(moves)
	cfg := metrics.EPEConfig{SearchNM: o.cfg.EPECap * 3, ThresholdNM: o.cfg.EPECap, Ith: ith}
	res := metrics.MeasureEPE(aerial, s.probes, cfg)
	for i := 0; i < n; i++ {
		e := res.PerProbe[i]
		if e > o.cfg.EPECap {
			e = o.cfg.EPECap
		} else if e < -o.cfg.EPECap {
			e = -o.cfg.EPECap
		}
		// Adaptive damping: when the EPE sign flips between iterations the
		// local loop gain exceeds the process MEEF, so back the gain off;
		// recover it slowly while the sign is stable. Flips within the
		// small-error band are measurement noise, not instability, and do
		// not damp.
		if s.prevEPE[i]*e < 0 && math.Abs(e) > 2*o.cfg.EPETol {
			s.damp[i] *= 0.6
		} else if s.damp[i] < 1 {
			s.damp[i] = math.Min(1, s.damp[i]*1.1)
		}
		s.prevEPE[i] = e
		s.epe[i] = e
		if math.Abs(e) <= o.cfg.EPETol {
			continue
		}
		// Corner control points run at reduced (possibly zero) authority:
		// their corner EPE cannot fully resolve, so they mostly follow
		// their neighbours via Eq. (7) smoothing.
		gain := 1.0
		if len(s.Corner) == len(s.Ctrl) && s.Corner[i] {
			gain = o.cfg.CornerGain
			if gain == 0 {
				continue
			}
		}
		// Diagonal-Jacobian solver (Eq. 6): Δd = -γ·e along the normal,
		// with the per-iteration excursion capped for stability.
		mag := math.Abs(e) * step * gain * s.damp[i]
		if mag > o.cfg.MoveCap {
			mag = o.cfg.MoveCap
		}
		dir := s.OutwardNormal(i)
		// Positive EPE: printed edge outside target → pull mask inward.
		if e > 0 {
			dir = dir.Mul(-1)
		}
		moves[i] = dir.Mul(mag)
	}
	return moves
}

// holeScratch returns the raster the mask's hole loops render into: nil
// until the first mask with a hole, then one raster kept for every later
// step and Reset.
func (o *Optimizer) holeScratch() *raster.Field {
	if o.holes == nil && o.mask.hasHoles() {
		o.holes = raster.NewField(o.sim.Grid())
	}
	return o.holes
}

// ensureStepScratch lazily sizes the Shape's per-step buffers: move
// vectors, smoothing output, probes and the EPE/damping state. It is
// the one-time warm-up path backing the noalloc annotations on Step's
// helpers.
func (s *Shape) ensureStepScratch(n int) {
	if s.moves == nil || len(s.moves) != n {
		s.moves = make([]geom.Pt, n)
		s.smoothed = make([]geom.Pt, n)
	}
	if s.probes == nil {
		s.probes = make([]metrics.Probe, n)
		for i := 0; i < n; i++ {
			s.probes[i] = metrics.Probe{Pos: s.Anchor[i], Normal: s.Normal[i]}
		}
	}
	if s.epe == nil {
		s.epe = make([]float64, n)
		s.prevEPE = make([]float64, n)
		s.damp = make([]float64, n)
		for i := range s.damp {
			s.damp[i] = 1
		}
	}
}

// smoothMoves applies Eq. (7): each move becomes the weighted average of the
// 2W+1 neighbouring move *vectors* on the same closed loop, with binomial
// weights (precomputed once in NewOptimizerWithMask). W <= 0 returns moves
// unchanged; otherwise the result lands in the shape's smoothing scratch.
//
//cardopc:noalloc
func (o *Optimizer) smoothMoves(s *Shape, moves []geom.Pt) []geom.Pt {
	w := o.cfg.SmoothWindow
	if w <= 0 || len(moves) < 2*w+1 {
		return moves
	}
	n := len(moves)
	out := s.smoothed[:n]
	for i := 0; i < n; i++ {
		var acc geom.Pt
		for k := -w; k <= w; k++ {
			acc = acc.Add(moves[((i+k)%n+n)%n].Mul(o.smoothW[k+w]))
		}
		out[i] = acc
	}
	return out
}

// binomialWeights returns normalised binomial weights of width 2w+1
// (w=1 → [0.25, 0.5, 0.25]).
func binomialWeights(w int) []float64 {
	n := 2 * w
	row := make([]float64, n+1)
	row[0] = 1
	for i := 1; i <= n; i++ {
		for j := i; j > 0; j-- {
			row[j] += row[j-1]
		}
	}
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	for i := range row {
		row[i] /= sum
	}
	return row
}

// clampDrift projects p back onto the ball of radius maxDrift around
// anchor and reports whether the cap bit. maxDrift <= 0 disables the
// cap.
func clampDrift(p, anchor geom.Pt, maxDrift float64) (geom.Pt, bool) {
	if maxDrift <= 0 {
		return p, false
	}
	d := p.Sub(anchor)
	if n := d.Norm(); n > maxDrift {
		return anchor.Add(d.Mul(maxDrift / n)), true
	}
	return p, false
}

// Optimize is the convenience entry point: build an optimizer and run it.
func Optimize(sim *litho.Simulator, targets []geom.Polygon, cfg Config) *Result {
	return NewOptimizer(sim, targets, cfg).Run()
}
