package baseline

import (
	"cardopc/internal/fit"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/spline"
)

// CircleConfig tunes the CircleOpt proxy.
type CircleConfig struct {
	// CtrlFraction is the (deliberately low) r_Q of the arc-constrained
	// fit: fewer control points ≈ circle/arc-limited masks.
	CtrlFraction float64
	// Tension of the fitted loops.
	Tension float64
}

// DefaultCircleConfig returns the Fig. 7 proxy settings.
func DefaultCircleConfig() CircleConfig {
	return CircleConfig{
		CtrlFraction: 0.06,
		Tension:      spline.DefaultTension,
	}
}

// CircleResult is one CircleOPC run.
type CircleResult struct {
	// MaskPolys are the final arc-limited mask outlines.
	MaskPolys []geom.Polygon
	// Ctrl holds the fitted control loops (for MRC).
	Ctrl [][]geom.Pt
}

// CircleOPC emulates fracturing-aware curvilinear ILT (CircleOpt, ref
// [49]): the free-form mask of a pixel ILT run is re-expressed with a very
// low control-point budget so every boundary is built from few,
// large-radius arcs — the circular e-beam writing constraint. The reduced
// degrees of freedom trade pattern fidelity (higher L2/EPE than the
// spline-fit hybrid) for writer-friendly geometry, which is exactly the
// trade-off Fig. 7 probes. iltRes is only read, so the hybrid flow can fit
// the same run.
func CircleOPC(iltRes *ilt.Result, cfg CircleConfig) *CircleResult {
	fcfg := fit.DefaultConfig()
	fcfg.RQ = cfg.CtrlFraction
	fcfg.Tension = cfg.Tension
	shapes := fit.FitMask(iltRes.BinaryMask, fcfg)

	out := &CircleResult{}
	for _, s := range shapes {
		if s.Hole {
			continue
		}
		out.Ctrl = append(out.Ctrl, s.Ctrl)
		out.MaskPolys = append(out.MaskPolys, spline.NewCurve(s.Ctrl, cfg.Tension).Sample(8))
	}
	return out
}
