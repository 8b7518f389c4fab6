// Command iltrun optimises a pixel ILT mask for a layout clip, optionally
// fitting the result with cardinal splines (Algorithm 1) and resolving MRC
// violations — the ILT–OPC hybrid flow of the paper's §III-G.
//
// Usage:
//
//	iltrun -case M1 -iters 150
//	iltrun -case M2 -fit -svg hybrid.svg
package main

import (
	"flag"
	"fmt"
	"log"

	"cardopc/internal/cli"
	"cardopc/internal/exp"
	"cardopc/internal/fit"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/mrc"
	"cardopc/internal/raster"
	"cardopc/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iltrun: ")

	var (
		caseName = flag.String("case", "", "built-in testcase name (V1..V13, M1..M10)")
		inPath   = flag.String("in", "", "input clip file")
		iters    = flag.Int("iters", 150, "ILT iterations")
		doFit    = flag.Bool("fit", false, "fit the ILT mask with splines + resolve MRC (hybrid flow)")
		svgPath  = flag.String("svg", "", "write an SVG snapshot")
		gridSize = flag.Int("grid", 512, "raster size (power of two)")
		pitch    = flag.Float64("pitch", 4, "raster pitch in nm")
	)
	var obsOpts cli.ObsOptions
	cli.RegisterObsFlags(&obsOpts)
	cli.RegisterProfileFlags(&obsOpts)
	flag.Parse()

	clip, err := cli.LoadClip(*caseName, *inPath)
	if err != nil {
		log.Fatal(err)
	}

	obsOpts.Cmd, obsOpts.Clip = "iltrun", clip.Name
	run, err := cli.StartObs(obsOpts)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := run.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	rep := run.Report()

	lcfg := litho.DefaultConfig()
	lcfg.GridSize = *gridSize
	lcfg.PitchNM = *pitch
	sim := litho.NewSimulator(lcfg)
	g := sim.Grid()

	target := ilt.Target(g, clip.Targets)

	iltCfg := ilt.DefaultConfig()
	iltCfg.Iterations = *iters

	if !*doFit {
		res := ilt.Run(sim, target, iltCfg)
		printed := sim.Aerial(res.Mask).Threshold(lcfg.Threshold)
		rep.Set("ilt_loss", res.Loss)
		rep.Set("iterations", *iters)
		rep.Set("l2_px", metrics.L2(printed, target.Threshold(0.5)))
		fmt.Printf("%s: ILT loss %.1f after %d iterations, L2 %d px\n",
			clip.Name, res.Loss, *iters, metrics.L2(printed, target.Threshold(0.5)))
		if *svgPath != "" {
			polys := raster.MarchingSquares(res.Mask, 0.5)
			writeSnapshot(*svgPath, clip, polys, sim.Contours(raster.Rasterize(g, polys, 4)))
		}
		return
	}

	hy := exp.HybridFit(ilt.Run(sim, target, iltCfg), fit.DefaultConfig(), mrc.DefaultRules())
	polys := hy.Mask.Polygons(8)
	aerial := sim.Aerial(raster.Rasterize(g, polys, 4))
	printed := aerial.Threshold(lcfg.Threshold)
	probes := metrics.ProbesForLayout(clip.Targets, 40)
	epe := metrics.MeasureEPE(aerial, probes, metrics.DefaultEPEConfig(lcfg.Threshold))
	rep.Set("shapes", len(hy.Mask.Shapes))
	rep.Set("control_points", hy.Mask.NumControlPoints())
	rep.Set("mrc_before", hy.MRCBefore)
	rep.Set("mrc_after", hy.MRCAfter)
	rep.Set("mrc_removed", hy.Removed)
	rep.Set("l2_px", metrics.L2(printed, target.Threshold(0.5)))
	rep.Set("epe_violations", epe.Violations)
	fmt.Printf("%s: hybrid mask with %d shapes (%d control points)\n",
		clip.Name, len(hy.Mask.Shapes), hy.Mask.NumControlPoints())
	fmt.Printf("MRC: %d -> %d violations (%d specks removed)\n", hy.MRCBefore, hy.MRCAfter, hy.Removed)
	fmt.Printf("L2 %d px, EPE violations %d\n",
		metrics.L2(printed, target.Threshold(0.5)), epe.Violations)
	if *svgPath != "" {
		// Contour the aerial image above rather than image the mask again.
		writeSnapshot(*svgPath, clip, polys, raster.MarchingSquares(aerial, lcfg.Threshold))
	}
}

// writeSnapshot draws the mask polygons, the targets and the print
// contour of the mask.
func writeSnapshot(path string, clip layout.Clip, polys, contour []geom.Polygon) {
	view := geom.RectOf(geom.P(0, 0), geom.P(clip.SizeNM, clip.SizeNM))
	c := render.NewCanvas(view, 800)
	c.Add("mask", polys, render.MaskStyle)
	c.Add("target", clip.Targets, render.TargetStyle)
	c.Add("contour", contour, render.ContourStyle)
	if err := c.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot written to %s\n", path)
}
