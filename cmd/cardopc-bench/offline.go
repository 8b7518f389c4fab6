package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cardopc/internal/core"
	"cardopc/internal/fft"
	"cardopc/internal/fit"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/mrc"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

// offline is an in-process workload: every clip runs the whole flow —
// correction, three-corner evaluation, MRC resolve — against one
// litho.Process.
type offline struct {
	name    string
	grid    int
	pitchNM float64
	clips   []layout.Clip
	// opc selects the CardOPC flow (Tables I/II); iltCfg the ILT–OPC
	// hybrid flow (§III-G). Exactly one is set.
	opc    *core.Config
	iltCfg *ilt.Config
	// probeSpacingNM places the evaluation's EPE probes, as the paper
	// tables do: 0 for vias (one per edge), 60 for metal, 40 for hybrid.
	probeSpacingNM float64
}

// setupBuilds is how many times a run builds the imaging stack to
// measure setup_s.
const setupBuilds = 9

// viaWorkload is the Table I flow at the paper's 512 px @ 4 nm raster
// with SRAFs. The 23-kernel SOCS sweep is ~98% of each correction step
// here, so a litho kernel change shows its full effect. Eight iterations
// instead of the paper's 32 keep a clip near 1.5–2 s, so one run covers
// all of V1–V13, most of them more than once, and its metrics do not
// depend on which clips the seed drew.
func viaWorkload(short bool) *offline {
	cfg := iterations(core.ViaConfig(), 8)
	w := &offline{name: "clip_via512", grid: 512, pitchNM: 4, opc: &cfg}
	for i := 1; i <= layout.NumViaClips; i++ {
		w.clips = append(w.clips, layout.ViaClip(i))
	}
	return w.shrink(short)
}

// metalWorkload is the Table II flow at exp.Fast()'s 256 px @ 8 nm
// raster with the paper's 32 iterations. Metal clips carry 2–4× more
// control points than vias and each kernel FFT is 4.6× cheaper, so core,
// raster, metrics and mrc take a larger share, and MRC resolve does
// real work.
func metalWorkload(short bool) *offline {
	cfg := core.MetalConfig()
	w := &offline{name: "clip_metal256", grid: 256, pitchNM: 8, opc: &cfg, probeSpacingNM: 60}
	for i := 1; i <= layout.NumMetalClips; i++ {
		w.clips = append(w.clips, layout.MetalClip(i))
	}
	return w.shrink(short)
}

// hybridWorkload is the §III-G ILT–OPC hybrid at 256 px @ 8 nm: pixel
// ILT, spline fitting, MRC resolve with the hybrid rules. It bypasses
// core.Optimizer and runs litho's forward-with-cache and adjoint
// gradient path instead of AerialFromFreqInto. Ten ILT iterations keep
// a clip near 1.7 s, so one run covers every testcase.
func hybridWorkload(short bool) *offline {
	cfg := ilt.DefaultConfig()
	cfg.Iterations = 10
	w := &offline{name: "hybrid256", grid: 256, pitchNM: 8, iltCfg: &cfg, probeSpacingNM: 40}
	for i := 1; i <= layout.NumMetalClips; i++ {
		w.clips = append(w.clips, layout.MetalClip(i))
	}
	return w.shrink(short)
}

// iterations returns cfg running n correction iterations with the
// paper's half-way step decay.
func iterations(cfg core.Config, n int) core.Config {
	cfg.Iterations = n
	cfg.DecayAt = []int{n / 2}
	return cfg
}

// shrink reduces w to smoke scale when short is set: 128 px @ 16 nm,
// two iterations, one clip per run.
func (w *offline) shrink(short bool) *offline {
	if !short {
		return w
	}
	w.grid, w.pitchNM = 128, 16
	if w.opc != nil {
		cfg := iterations(*w.opc, 2)
		w.opc = &cfg
	} else {
		cfg := *w.iltCfg
		cfg.Iterations = 2
		w.iltCfg = &cfg
	}
	return w
}

func (w *offline) lithoConfig() litho.Config {
	cfg := litho.DefaultConfig()
	cfg.GridSize, cfg.PitchNM = w.grid, w.pitchNM
	return cfg
}

// evalResult is the paper-table metric suite of one mask.
type evalResult struct {
	EPESum  float64 // Σ|EPE| nm at the probes
	EPEViol int     // probes beyond the 15 nm threshold
	PVB     float64 // nm² between the process corners
	L2      float64 // px between nominal print and target
}

// clipOutcome is what one clip's flow produced.
type clipOutcome struct {
	Name       string
	WallS      float64
	IterMS     []float64 // per correction step (CardOPC flow only)
	History    []float64 // Σ|EPE| per step, or the ILT loss per iteration
	ILTLoss    float64
	CtrlPoints int
	Eval       evalResult
	MRCFound   int
	MRCLeft    int
}

// runClip runs one clip through w's flow.
func (w *offline) runClip(rec *recorder, proc *litho.Process, unit int, clip layout.Clip) clipOutcome {
	root := rec.startClip(unit, clip.Name)
	t0 := time.Now()
	var out clipOutcome
	if w.opc != nil {
		out = w.runOPC(rec, proc, clip)
	} else {
		out = w.runHybrid(rec, proc, clip)
	}
	out.Name = clip.Name
	out.WallS = time.Since(t0).Seconds()
	rec.stop(root)
	return out
}

// runOPC is the CardOPC flow: step-by-step correction, evaluation of
// the corrected mask, then MRC check and resolve.
func (w *offline) runOPC(rec *recorder, proc *litho.Process, clip layout.Clip) clipOutcome {
	cfg := *w.opc
	sp := rec.start("core.NewOptimizer", layerCore)
	opt := core.NewOptimizer(proc.Nominal, clip.Targets, cfg)
	rec.stop(sp)
	out := clipOutcome{CtrlPoints: opt.Mask().NumControlPoints()}
	for it := 0; it < cfg.Iterations; it++ {
		sp = rec.start("core.Optimizer.Step", layerCore)
		t0 := time.Now()
		out.History = append(out.History, opt.Step(it))
		out.IterMS = append(out.IterMS, msSince(t0))
		rec.stop(sp)
	}
	sp = rec.start("core.Mask.Polygons", layerRaster)
	polys := opt.Mask().Polygons(cfg.SamplesPerSeg)
	rec.stop(sp)
	out.Eval = evaluate(rec, proc, polys, clip.Targets, w.probeSpacingNM)
	out.MRCFound, out.MRCLeft = resolveMRC(rec, opt.Mask(), mrc.DefaultRules(), mrc.DefaultResolveOptions())
	return out
}

// runHybrid is exp.Hybrid with a span around each call, followed by the
// Fig. 7 evaluation of the resolved mask.
func (w *offline) runHybrid(rec *recorder, proc *litho.Process, clip layout.Clip) clipOutcome {
	fitCfg := fit.DefaultConfig()
	sp := rec.start("raster.Rasterize", layerRaster)
	target := raster.Rasterize(proc.Nominal.Grid(), clip.Targets, 2)
	for i, v := range target.Data {
		if v >= 0.5 {
			target.Data[i] = 1
		} else {
			target.Data[i] = 0
		}
	}
	rec.stop(sp)
	sp = rec.start("ilt.Solver.Run", layerILT)
	iltRes := ilt.NewSolver(proc.Nominal, target, *w.iltCfg).Run()
	rec.stop(sp)
	sp = rec.start("fit.FitField", layerFit)
	shapes := fit.FitField(iltRes.Mask, 0.5, fitCfg)
	rec.stop(sp)

	sp = rec.start("core.Mask.AddFittedShapes", layerCore)
	mask := &core.Mask{}
	ccfg := core.Config{Spline: spline.Cardinal, Tension: fitCfg.Tension}
	var loops, holes [][]geom.Pt
	for _, s := range shapes {
		if s.Hole {
			holes = append(holes, s.Ctrl)
		} else {
			loops = append(loops, s.Ctrl)
		}
	}
	mask.AddFittedShapes(loops, ccfg, false)
	mask.AddHoleShapes(holes, ccfg)
	rec.stop(sp)

	opt := mrc.DefaultResolveOptions()
	opt.RemoveAreaViolators = true
	opt.MaxPasses = 10
	out := clipOutcome{History: iltRes.History, ILTLoss: iltRes.Loss}
	out.MRCFound, out.MRCLeft = resolveMRC(rec, mask, mrc.HybridRules(), opt)
	out.CtrlPoints = mask.NumControlPoints()
	sp = rec.start("core.Mask.Polygons", layerRaster)
	polys := mask.Polygons(8)
	rec.stop(sp)
	out.Eval = evaluate(rec, proc, polys, clip.Targets, w.probeSpacingNM)
	return out
}

// resolveMRC indexes the mask, resolves its rule violations and returns
// the violation counts before and after.
func resolveMRC(rec *recorder, mask *core.Mask, rules mrc.Rules, opt mrc.ResolveOptions) (found, left int) {
	sp := rec.start("mrc.NewChecker", layerMRC)
	checker := mrc.NewChecker(mask, rules)
	rec.stop(sp)
	sp = rec.start("mrc.Checker.Resolve", layerMRC)
	res := checker.Resolve(opt)
	rec.stop(sp)
	return res.Before, res.After
}

// evaluate measures one mask against its targets exactly as the paper
// tables do (exp's evaluate): Σ|EPE| and violations at the probes, PVB
// over the three process corners, L2 at nominal.
func evaluate(rec *recorder, proc *litho.Process, maskPolys, targets []geom.Polygon, probeSpacingNM float64) evalResult {
	g := proc.Nominal.Grid()
	sp := rec.start("raster.Rasterize", layerRaster)
	mask := raster.Rasterize(g, maskPolys, 4)
	rec.stop(sp)
	mf := fft.GetGrid(mask.Size, mask.Size)
	sp = rec.start("litho.MaskFreqInto", layerFFT)
	litho.MaskFreqInto(mf, mask)
	rec.stop(sp)
	sp = rec.start("litho.Process.AerialAllFromFreq", layerLitho)
	nomA, innerA, outerA := proc.AerialAllFromFreq(mf)
	rec.stop(sp)
	fft.PutGrid(mf)

	ith := proc.Nominal.Config().Threshold
	sp = rec.start("metrics.MeasureEPE", layerMetrics)
	probes := metrics.ProbesForLayout(targets, probeSpacingNM)
	epe := metrics.MeasureEPE(nomA, probes, metrics.DefaultEPEConfig(ith))
	rec.stop(sp)
	sp = rec.start("raster.Rasterize", layerRaster)
	tgtBin := raster.Rasterize(g, targets, 2).Threshold(0.5)
	rec.stop(sp)
	sp = rec.start("metrics.PVB", layerMetrics)
	nomB := nomA.Threshold(ith)
	pvb := metrics.PVB(nomB, innerA.Threshold(proc.Inner.Config().Threshold), outerA.Threshold(proc.Outer.Config().Threshold))
	l2 := float64(metrics.L2(nomB, tgtBin))
	rec.stop(sp)
	return evalResult{EPESum: epe.SumAbs, EPEViol: epe.Violations, PVB: pvb, L2: l2}
}

// setupProcess builds the imaging stack setupBuilds times — kernel sets
// plus the first aerial call, which also plans the FFTs — and returns
// the last one with the median build time in seconds.
func (w *offline) setupProcess(first layout.Clip) (*litho.Process, float64) {
	cfg := w.lithoConfig()
	g := raster.Grid{Size: cfg.GridSize, Pitch: cfg.PitchNM}
	mask := raster.Rasterize(g, first.Targets, 4)
	var proc *litho.Process
	times := make([]float64, setupBuilds)
	for i := range times {
		proc = nil
		runtime.GC() // keep earlier builds out of the next one's time and of rss_peak_mb
		t0 := time.Now()
		proc = litho.NewProcess(cfg, litho.DefaultCorners())
		proc.Nominal.Aerial(mask)
		times[i] = time.Since(t0).Seconds()
	}
	return proc, median(times)
}

// order returns the clips in the seed's order. A run cycles through it
// until its time is up, so at the default -seconds every seed covers
// every testcase, most of them twice or more, and only the order
// changes.
func (w *offline) order(seed int64) []layout.Clip {
	r := rand.New(rand.NewSource(seed))
	out := make([]layout.Clip, len(w.clips))
	for i, j := range r.Perm(len(w.clips)) {
		out[i] = w.clips[j]
	}
	return out
}

// runOffline measures an offline workload for o.seconds and checks
// every clip's outputs.
func runOffline(w *offline, o options, log *bufio.Writer) (*result, error) {
	order := w.order(o.seed)
	res := newResult(o.trace)
	if o.trace {
		return runOfflineTraced(w, o, order, res, log)
	}
	proc, setupS := w.setupProcess(order[0])
	var outs []clipOutcome
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || (!o.short && time.Now().Before(deadline)); i++ {
		outs = append(outs, w.runClip(nil, proc, i, order[i%len(order)]))
	}
	rss, err := rssPeakMB("self")
	if err != nil {
		return nil, err
	}
	checkClips(res, w, outs, !o.short)
	res.Attempted = len(outs)

	// Each testcase counts once, whatever the seed repeated, so the
	// figures describe the testcase set rather than the run's mix.
	byCase := map[string][]float64{}
	for _, c := range outs {
		byCase[c.Name] = append(byCase[c.Name], c.WallS)
	}
	var caseMedian, caseMean []float64
	for _, clip := range w.clips {
		if t := byCase[clip.Name]; len(t) > 0 {
			caseMedian = append(caseMedian, median(t))
			caseMean = append(caseMean, mean(t))
		}
	}
	res.set("setup_s", setupS)
	res.set("clips_per_min", 60/mean(caseMean))
	res.set("clip_s_p50", median(caseMedian))
	res.set("rss_peak_mb", rss)
	fmt.Fprintf(log, "%s: %d clips of %d testcases, seed %d, %d px @ %g nm\n", w.name, len(outs), len(caseMean), o.seed, w.grid, w.pitchNM)
	return res, nil
}

// runOfflineTraced is the traced run: each clip runs twice, first with
// instrumentation off and then with the program's span histograms and
// the benchmark's spans on, so the pair gives the tracing overhead and
// the traced half gives the per-layer split.
func runOfflineTraced(w *offline, o options, order []layout.Clip, res *result, log *bufio.Writer) (*result, error) {
	st := &obs.State{Metrics: obs.NewRegistry()}
	reg := st.Metrics
	obs.Setup(st)
	defer obs.Setup(nil)
	proc, _ := w.setupProcess(order[0])
	base := readTotals(reg)
	baseFFTs := reg.Counter("fft.inverse2").Value()
	rec := newRecorder(reg)
	var outs []clipOutcome
	var overhead, plainSteps []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || (!o.short && time.Now().Before(deadline)); i++ {
		clip := order[i%len(order)]
		obs.Setup(nil)
		plain := w.runClip(nil, proc, i, clip)
		obs.Setup(st)
		traced := w.runClip(rec, proc, i, clip)
		overhead = append(overhead, traced.WallS/plain.WallS-1)
		plainSteps = append(plainSteps, plain.IterMS...)
		outs = append(outs, traced)
	}
	prog := readTotals(reg).sub(base)
	build := readTotals(reg).get("litho.build_kernels")
	ffts := reg.Counter("fft.inverse2").Value() - baseFFTs
	checkClips(res, w, outs, !o.short)
	res.Attempted = len(outs)

	wallMS := 0.0
	ctrl := 0.0
	for _, c := range outs {
		wallMS += c.WallS * 1e3
		ctrl += float64(c.CtrlPoints)
	}
	self, calls := rec.layerSelf()
	setLayerMetrics(res, prog, build, self, wallMS, len(outs), ffts)
	res.set("core.ctrl_points", ctrl/float64(len(outs)))
	res.set("server.wait_share", 0)
	res.set("server.coalesced_frac", 0)

	printLayerTable(log, self, calls, len(outs), wallMS, prog)
	rec.printSpanTable(log)
	if n, parts := rec.spanSplit("core.Optimizer.Step"); n > 0 {
		// The split sums to the traced step by construction; set against
		// the untraced median step it shows how much of an ordinary step
		// the per-layer times account for.
		total := 0.0
		fmt.Fprintf(log, "core.Optimizer.Step split per step:")
		for _, lt := range parts {
			fmt.Fprintf(log, " %s %.2f ms", lt.Layer, lt.MS/float64(n))
			total += lt.MS / float64(n)
		}
		fmt.Fprintf(log, "; sum %.2f ms = %.1f%% of the untraced median step %.2f ms\n",
			total, 100*total/median(plainSteps), median(plainSteps))
	}
	fmt.Fprintf(log, "obs.overhead_frac %.4f (median of %d traced/untraced clip pairs)\n", median(overhead), len(overhead))
	if err := rec.writeChrome(o.traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace written to %s\n", o.traceOut)
	return res, nil
}

// setLayerMetrics fills the per-layer metrics shared by every workload
// from program-span totals over the measured units, the kernel-set
// builds, and per-layer self times over wallMS of unit time. The
// inverse-FFT count is the total over the units.
func setLayerMetrics(res *result, prog progTotals, build histTotal, self map[string]float64, wallMS float64, units int, inverseFFTs int64) {
	iters := prog.get("opc.step").Count + prog.get("ilt.step").Count
	res.set("iter_ms", (prog.get("opc.step").MS+prog.get("ilt.step").MS)/float64(iters))
	res.set("litho.aerial_ms", prog.meanMS("litho.aerial"))
	res.set("litho.kernel_ms", prog.meanMS("litho.kernel"))
	res.set("litho.build_kernels_ms", build.MS/float64(build.Count))
	res.set("fft.mask_freq_ms", prog.meanMS("litho.mask_freq"))
	res.set("raster.rasterize_ms", prog.meanMS("raster.rasterize"))
	res.set("litho.kernel_ffts", float64(inverseFFTs)/float64(units))
	res.set("litho.parallel_eff", (prog.get("litho.kernel").MS+prog.get("litho.grad_kernel").MS)/(self[layerLitho]*procs))
	for _, l := range []string{layerCore, layerLitho, layerFFT, layerRaster, layerILT, layerMRC} {
		res.set(l+".share", self[l]/wallMS)
	}
}

// checkClips applies the output checks to every clip: finite metrics,
// a correction history that ends below where it started, and — at full
// scale — quality no worse than reference.json.
func checkClips(res *result, w *offline, outs []clipOutcome, useRef bool) {
	var refs map[string]reference
	if useRef {
		var err error
		if refs, err = references(); err != nil {
			res.fail("%v", err)
			return
		}
	}
	for _, c := range outs {
		for _, v := range append([]float64{c.Eval.EPESum, c.Eval.PVB, c.Eval.L2, c.ILTLoss}, c.History...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.fail("%s/%s: non-finite output %v", w.name, c.Name, v)
				break
			}
		}
		if n := len(c.History); n < 2 || !(c.History[n-1] < c.History[0]) {
			res.fail("%s/%s: history %v does not end below its first iteration", w.name, c.Name, c.History)
		}
		if useRef {
			checkReference(res, refs, w.name, c)
		}
	}
}
