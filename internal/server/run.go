package server

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"cardopc/internal/bigopc"
	"cardopc/internal/cli"
	"cardopc/internal/core"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/obs"
	"cardopc/internal/raster"
)

// execute runs one accepted job on an executor goroutine: deadline,
// scope + event routing, panic isolation and the final status
// transition all live here. Every record the job's compute emits goes
// through the obs.Scope built here, so the event hub can route it to
// this job exactly even with concurrent executors; the scope's overlay
// registry becomes the per-job metrics snapshot in the result.
func (s *Server) execute(j *Job) {
	if j.statusNow() != StatusQueued {
		// Cancelled while queued; nothing to run.
		return
	}
	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	reg := obs.NewRegistry()
	sc := obs.ScopeFor(j.id).WithRegistry(reg)
	ctx = obs.ContextWithScope(ctx, sc)

	j.setRunning(cancel)
	s.hub.register(j.id, j.events)
	obs.C("server.jobs.started").Inc()
	obs.G("server.jobs.running").Add(1)
	sc.Emit(&JobStatusEvent{ID: j.id, Status: StatusRunning})
	t0 := time.Now()

	res, err := s.runSpec(ctx, j.spec)

	st, msg := StatusDone, ""
	switch {
	case err != nil && ctx.Err() != nil:
		st, msg = StatusCancelled, ctx.Err().Error()
	case err != nil:
		st, msg = StatusFailed, err.Error()
	}
	durMS := time.Since(t0).Seconds() * 1e3
	sc.Emit(&JobStatusEvent{ID: j.id, Status: st, Err: msg, DurMS: durMS})
	obs.G("server.jobs.running").Add(-1)
	obs.C("server.jobs." + string(st)).Inc()
	obs.H("server.job.ms").Observe(durMS)
	if res != nil {
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	// Unregister before finishing so nothing lands in a closed log; then
	// close the event stream so tailers end.
	s.hub.unregister(j.id)
	j.finish(st, res, msg)
	j.events.close()
}

// faultInjection, when non-nil, runs inside the job sandbox before
// dispatch. Tests install a panicking hook here to prove the recover
// actually contains a poisoned job; it is never set in production.
var faultInjection func(spec JobSpec)

// runSpec dispatches on the job kind, converting panics anywhere in the
// correction stack into job failures so one poisoned job cannot take
// the daemon down.
func (s *Server) runSpec(ctx context.Context, spec JobSpec) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			obs.C("server.jobs.panics").Inc()
			res, err = nil, fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if faultInjection != nil {
		faultInjection(spec)
	}
	switch spec.Kind {
	case "bigopc":
		return s.runBigopc(ctx, spec)
	case "ilt":
		return s.runILT(ctx, spec)
	default:
		return s.runClip(ctx, spec)
	}
}

// lithoConfig resolves the spec's raster overrides against the serving
// default for its kind. Tiled layouts default to a coarser raster so the
// optical window covers tile + halos (512 px × 8 nm = 4096 nm field).
func lithoConfig(spec JobSpec) litho.Config {
	lcfg := litho.DefaultConfig()
	if spec.Kind == "bigopc" {
		lcfg.PitchNM = 8
	}
	if spec.Grid > 0 {
		lcfg.GridSize = spec.Grid
	}
	if spec.PitchNM > 0 {
		lcfg.PitchNM = spec.PitchNM
	}
	// Normalise before the Validate calls downstream: the decoded spec
	// never carries a dose today, but the zero-means-default contract is
	// applied explicitly rather than relied on implicitly.
	return lcfg.WithDefaults()
}

// runClip is the single-window flow: warm Process lookup, ctx-aware
// correction loop, full metric suite.
func (s *Server) runClip(ctx context.Context, spec JobSpec) (*JobResult, error) {
	clip, err := spec.clip()
	if err != nil {
		return nil, err
	}
	lcfg := lithoConfig(spec)
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	cfg, err := cli.PickConfig(spec.Layer, clip.Name)
	if err != nil {
		return nil, err
	}
	if spec.Iters > 0 {
		cfg.Iterations = spec.Iters
		cfg.DecayAt = []int{spec.Iters / 2}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	proc := s.procs.GetScoped(obs.ScopeFromContext(ctx), lcfg, litho.DefaultCorners())
	opt := core.NewOptimizer(proc.Nominal, clip.Targets, cfg)
	res, err := opt.RunContext(ctx)
	if err != nil {
		return nil, err
	}

	polys := res.Mask.Polygons(cfg.SamplesPerSeg)
	out := &JobResult{
		ControlPoints: res.Mask.NumControlPoints(),
		Iterations:    res.Iterations,
		Shapes:        len(polys),
	}
	measureClip(proc, polys, clip.Targets, cfg.ProbeSpacing, out)
	if spec.ReturnMask {
		out.MaskPolys = encodePolys(polys)
	}
	return out, nil
}

// measureClip fills the EPE/PVB/L2 metric suite — the same measurements
// the cardopc CLI prints.
func measureClip(proc *litho.Process, maskPolys, targets []geom.Polygon, spacing float64, out *JobResult) {
	g := proc.Nominal.Grid()
	mask := raster.Rasterize(g, maskPolys, 4)
	nomA, innerA, outerA := proc.AerialAll(mask)
	ith := proc.Nominal.Config().Threshold

	probes := metrics.ProbesForLayout(targets, spacing)
	epe := metrics.MeasureEPE(nomA, probes, metrics.DefaultEPEConfig(ith))
	tgt := raster.Rasterize(g, targets, 2).Threshold(0.5)
	nomB := nomA.Threshold(ith)
	pvb := metrics.PVB(nomB,
		innerA.Threshold(proc.Inner.Config().Threshold),
		outerA.Threshold(proc.Outer.Config().Threshold))

	out.EPESumNM = epe.SumAbs
	out.EPEProbes = len(probes)
	out.EPEViolations = epe.Violations
	out.PVBNM2 = pvb
	out.L2Px = metrics.L2(nomB, tgt)
}

// runILT is the pixel inverse-lithography flow: the target polygons are
// rasterised to a 0/1 field (ilt.Target) and the descent loop runs under
// the job context, so a cancelled or timed-out job stops at the next
// iteration boundary.
func (s *Server) runILT(ctx context.Context, spec JobSpec) (*JobResult, error) {
	clip, err := spec.clip()
	if err != nil {
		return nil, err
	}
	lcfg := lithoConfig(spec)
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	cfg := ilt.DefaultConfig()
	if spec.Iters > 0 {
		cfg.Iterations = spec.Iters
	}

	sim := s.procs.GetScoped(obs.ScopeFromContext(ctx), lcfg, litho.DefaultCorners()).Nominal
	target := ilt.Target(sim.Grid(), clip.Targets)
	res, err := ilt.RunContext(ctx, sim, target, cfg)
	if err != nil {
		return nil, err
	}

	out := &JobResult{
		Iterations: len(res.History),
		ILTLoss:    res.Loss,
		L2Px:       metrics.L2(res.BinaryMask, target.Threshold(0.5)),
	}
	return out, nil
}

// runBigopc is the tiled flow over a warm simulator.
func (s *Server) runBigopc(ctx context.Context, spec JobSpec) (*JobResult, error) {
	clip, err := spec.clip()
	if err != nil {
		return nil, err
	}
	lcfg := lithoConfig(spec)
	if err := lcfg.Validate(); err != nil {
		return nil, err
	}
	layer := spec.Layer
	if layer == "" {
		layer = "large"
	}
	opc, err := cli.PickConfig(layer, clip.Name)
	if err != nil {
		return nil, err
	}
	if spec.Iters > 0 {
		opc.Iterations = spec.Iters
		opc.DecayAt = []int{spec.Iters / 2}
	}
	bcfg := bigopc.Config{
		TileNM:  spec.TileNM,
		HaloNM:  spec.HaloNM,
		OPC:     opc,
		Litho:   lcfg,
		Workers: spec.Workers,
		// Warm-state hook: image through the cached kernel set.
		Sim: s.procs.GetScoped(obs.ScopeFromContext(ctx), lcfg, litho.DefaultCorners()).Nominal,
	}
	if bcfg.TileNM == 0 {
		bcfg.TileNM = 2000
	}
	if bcfg.HaloNM == 0 {
		bcfg.HaloNM = 400
	}
	res, err := bigopc.RunContext(ctx, clip.Targets, bcfg)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Iterations: opc.Iterations,
		Shapes:     res.Shapes,
		Tiles:      res.Tiles,
	}
	if spec.ReturnMask {
		out.MaskPolys = encodePolys(res.MaskPolys)
	}
	return out, nil
}

// encodePolys converts polygons to the wire shape.
func encodePolys(polys []geom.Polygon) [][][2]float64 {
	out := make([][][2]float64, len(polys))
	for i, p := range polys {
		out[i] = make([][2]float64, len(p))
		for k, v := range p {
			out[i][k] = [2]float64{v.X, v.Y}
		}
	}
	return out
}
