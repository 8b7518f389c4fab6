package exp

import (
	"fmt"
	"time"

	"cardopc/internal/baseline"
	"cardopc/internal/core"
	"cardopc/internal/fit"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/mrc"
	"cardopc/internal/spline"
)

// HybridResult is one run of the ILT–OPC hybrid flow (paper §III-G).
type HybridResult struct {
	// Mask is the spline mask fitted to the ILT output, after MRC
	// violation resolving.
	Mask *core.Mask
	// MRCBefore / MRCAfter count mask-rule violations around resolving.
	MRCBefore, MRCAfter int
	// Removed counts fitted specks deleted under the area rule.
	Removed int
	// ILTLoss is the final pixel-ILT loss.
	ILTLoss float64
}

// Hybrid runs the full ILT–OPC hybrid flow on one set of targets: pixel ILT
// (Fig. 2's alternative initialiser), Algorithm 1 spline fitting of the ILT
// mask, then MRC violation resolving.
func Hybrid(sim *litho.Simulator, targets []geom.Polygon, iltCfg ilt.Config, fitCfg fit.Config, rules mrc.Rules) *HybridResult {
	return HybridFit(ilt.Run(sim, ilt.Target(sim.Grid(), targets), iltCfg), fitCfg, rules)
}

// HybridFit is the hybrid flow after its ILT run: Algorithm 1 fitting of
// the ILT mask, then MRC violation resolving. iltRes is only read, so a
// caller that keeps the ILT target for its own scoring builds it once.
func HybridFit(iltRes *ilt.Result, fitCfg fit.Config, rules mrc.Rules) *HybridResult {
	shapes := fit.FitField(iltRes.Mask, 0.5, fitCfg)
	mask := &core.Mask{}
	ccfg := core.Config{Spline: spline.Cardinal, Tension: fitCfg.Tension}
	var loops, holes [][]geom.Pt
	for _, s := range shapes {
		if s.Hole {
			holes = append(holes, s.Ctrl)
			continue
		}
		loops = append(loops, s.Ctrl)
	}
	mask.AddFittedShapes(loops, ccfg, false)
	mask.AddHoleShapes(holes, ccfg)

	checker := mrc.NewChecker(mask, rules)
	opt := mrc.DefaultResolveOptions()
	opt.RemoveAreaViolators = true
	opt.MaxPasses = 10
	res := checker.Resolve(opt)

	return &HybridResult{
		Mask:      mask,
		MRCBefore: res.Before,
		MRCAfter:  res.After,
		Removed:   res.Removed,
		ILTLoss:   iltRes.Loss,
	}
}

// Fig7 regenerates the hybrid comparison (paper Fig. 7): the ILT–OPC hybrid
// vs the CircleOpt and DiffOPC proxies on the metal clips, reporting L2,
// PVB and EPE violations, plus the MRC violations removed by resolving.
func Fig7(o Options) *Table {
	t := &Table{ID: "Fig. 7", Title: "ILT–OPC hybrid vs curvilinear baselines: L2, PVB, EPE violations"}
	proc := newProcess(o)
	sim := proc.Nominal
	rules := mrc.HybridRules()

	n := o.clipCount(layout.NumMetalClips)
	var mrcBefore, mrcAfter float64
	for i := 1; i <= n; i++ {
		clip := layout.MetalClip(i)
		targets := clip.Targets

		iltCfg := ilt.DefaultConfig()
		if o.ILTIterations > 0 {
			iltCfg.Iterations = o.ILTIterations
		}

		// One pixel ILT run feeds both the hybrid and the CircleOpt proxy,
		// and both rows are charged its time.
		start := time.Now()
		iltRes := ilt.Run(sim, ilt.Target(sim.Grid(), targets), iltCfg)
		iltDur := time.Since(start)

		// Hybrid (ours).
		start = time.Now()
		hy := HybridFit(iltRes, fit.DefaultConfig(), rules)
		hyDur := iltDur + time.Since(start)
		hyEval := evaluate(proc, hy.Mask.Polygons(8), targets, 40)
		t.Rows = append(t.Rows, Row{Testcase: clip.Name, Method: "Hybrid", EPE: float64(hyEval.EPEViol), PVB: hyEval.PVB, L2: hyEval.L2, Runtime: hyDur})
		mrcBefore += float64(hy.MRCBefore)
		mrcAfter += float64(hy.MRCAfter)

		// CircleOpt proxy.
		start = time.Now()
		cr := baseline.CircleOPC(iltRes, baseline.DefaultCircleConfig())
		crDur := iltDur + time.Since(start)
		crEval := evaluate(proc, cr.MaskPolys, targets, 40)
		t.Rows = append(t.Rows, Row{Testcase: clip.Name, Method: "CircleOPC", EPE: float64(crEval.EPEViol), PVB: crEval.PVB, L2: crEval.L2, Runtime: crDur})

		// DiffOPC proxy.
		dcfg := baseline.DefaultDiffConfig()
		if o.Iterations > 0 {
			dcfg.Iterations = o.Iterations
		}
		start = time.Now()
		dr := baseline.DiffOPC(sim, targets, dcfg)
		drDur := time.Since(start)
		drEval := evaluate(proc, dr.MaskPolys, targets, 40)
		t.Rows = append(t.Rows, Row{Testcase: clip.Name, Method: "DiffOPC", EPE: float64(drEval.EPEViol), PVB: drEval.PVB, L2: drEval.L2, Runtime: drDur})
	}
	t.Notes = append(t.Notes,
		"EPE column is a violation count (Fig. 7 convention)",
		"paper Fig. 7 — average EPE violations: CardOPC hybrid 1.4, DiffOPC 2.2, CircleOpt 3.9; hybrid best on L2, competitive PVB",
		sharedILTNote,
	)
	if n > 0 {
		t.Notes = append(t.Notes, avgNote(mrcBefore/float64(n), mrcAfter/float64(n)))
	}
	return t
}

// sharedILTNote says how the Hybrid and CircleOPC runtimes are charged.
const sharedILTNote = "Hybrid and CircleOPC fit one shared pixel-ILT run per clip; both runtimes include it"

func avgNote(before, after float64) string {
	return fmt.Sprintf("MRC violations per clip before/after resolving: %.1f -> %.1f (paper: 43.8 -> 0)", before, after)
}
