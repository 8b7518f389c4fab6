// Package cardopc is the public API of the CardOPC reproduction: a
// curvilinear optical proximity correction (OPC) framework that represents
// mask patterns as control points connected by cardinal splines, optimises
// them under lithography-simulation feedback, checks and resolves
// curvilinear mask-rule (MRC) violations, and fits pixel-ILT results with
// splines to form an ILT–OPC hybrid flow.
//
// The package re-exports the stable surface of the internal packages:
//
//	geometry    — Pt, Polygon, Rect (nm coordinates)
//	imaging     — LithoConfig/Simulator/Process (Hopkins SOCS model)
//	OPC         — Config, Optimize, Mask (the paper's contribution)
//	baselines   — SegmentOPC (Manhattan), DiffOPC, CircleOPC proxies
//	ILT + fit   — pixel ILT and Algorithm 1 spline fitting
//	MRC         — Rules, Check, Resolve
//	layouts     — the Table I–III testcase generators
//	metrics     — EPE, PVB, L2
//
// A minimal flow:
//
//	sim := cardopc.NewSimulator(cardopc.DefaultLithoConfig())
//	clip := cardopc.ViaClip(1)
//	res := cardopc.Optimize(sim, clip.Targets, cardopc.ViaConfig())
//	polys := res.Mask.Polygons(8)  // final curvilinear mask outlines
package cardopc

import (
	"context"
	"io"

	"cardopc/internal/baseline"
	"cardopc/internal/bigopc"
	"cardopc/internal/core"
	"cardopc/internal/exp"
	"cardopc/internal/fit"
	"cardopc/internal/fracture"
	"cardopc/internal/gds"
	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/mrc"
	"cardopc/internal/orc"
	"cardopc/internal/pw"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

// ---- Geometry ----

// Pt is a point/vector in nanometres.
type Pt = geom.Pt

// Polygon is a simple closed polygon (implicit closing edge).
type Polygon = geom.Polygon

// Rect is an axis-aligned box.
type Rect = geom.Rect

// P constructs a point.
func P(x, y float64) Pt { return geom.P(x, y) }

// ---- Splines ----

// SplineKind selects cardinal or Bézier loops.
type SplineKind = spline.Kind

// Spline kinds.
const (
	Cardinal = spline.Cardinal
	Bezier   = spline.Bezier
)

// CardinalCurve is a closed cardinal-spline loop (paper Eq. 2).
type CardinalCurve = spline.Curve

// NewCardinalCurve builds a closed loop with the given tension.
func NewCardinalCurve(ctrl []Pt, tension float64) *CardinalCurve {
	return spline.NewCurve(ctrl, tension)
}

// DefaultTension is the tension s = 0.6 used throughout the paper.
const DefaultTension = spline.DefaultTension

// ---- Imaging ----

// LithoConfig describes the imaging system and raster.
type LithoConfig = litho.Config

// Simulator is the Hopkins-model lithography simulator (Eq. 1).
type Simulator = litho.Simulator

// Process bundles nominal + inner/outer process corners for PVB.
type Process = litho.Process

// Grid describes the pixel raster.
type Grid = raster.Grid

// Field is a scalar image (mask transmission or aerial intensity).
type Field = raster.Field

// DefaultLithoConfig returns the 193 nm / NA 1.35 annular imager on a
// 512×512 @ 4 nm raster used by the experiments.
func DefaultLithoConfig() LithoConfig { return litho.DefaultConfig() }

// NewSimulator builds the SOCS kernel stack for cfg.
func NewSimulator(cfg LithoConfig) *Simulator { return litho.NewSimulator(cfg) }

// NewProcess builds the nominal simulator plus process-window corners.
func NewProcess(cfg LithoConfig) *Process {
	return litho.NewProcess(cfg, litho.DefaultCorners())
}

// Rasterize renders polygons onto a grid with supersampled coverage.
func Rasterize(g Grid, polys []Polygon, ss int) *Field {
	return raster.Rasterize(g, polys, ss)
}

// ---- CardOPC (the paper's contribution) ----

// Config holds every CardOPC knob.
type Config = core.Config

// Mask is the curvilinear mask (control-point loops).
type Mask = core.Mask

// Shape is one mask shape.
type Shape = core.Shape

// Result reports one CardOPC run.
type Result = core.Result

// Optimizer drives the correction loop step by step.
type Optimizer = core.Optimizer

// ViaConfig returns the paper's via-layer settings (§IV-A).
func ViaConfig() Config { return core.ViaConfig() }

// MetalConfig returns the paper's metal-layer settings (§IV-A).
func MetalConfig() Config { return core.MetalConfig() }

// LargeScaleConfig returns the paper's large-scale settings (§IV-B).
func LargeScaleConfig() Config { return core.LargeScaleConfig() }

// Optimize runs the full CardOPC flow on the target polygons.
func Optimize(sim *Simulator, targets []Polygon, cfg Config) *Result {
	return core.Optimize(sim, targets, cfg)
}

// NewOptimizer initialises a flow for stepwise control.
func NewOptimizer(sim *Simulator, targets []Polygon, cfg Config) *Optimizer {
	return core.NewOptimizer(sim, targets, cfg)
}

// ---- Metrics ----

// Probe is one EPE measurement site.
type Probe = metrics.Probe

// EPEResult aggregates edge placement errors.
type EPEResult = metrics.EPEResult

// EPEConfig controls EPE measurement.
type EPEConfig = metrics.EPEConfig

// DefaultEPEConfig returns the experiment thresholds for a given resist
// threshold.
func DefaultEPEConfig(ith float64) EPEConfig { return metrics.DefaultEPEConfig(ith) }

// MeasureEPE probes the aerial image along target-edge normals.
func MeasureEPE(aerial *Field, probes []Probe, cfg EPEConfig) EPEResult {
	return metrics.MeasureEPE(aerial, probes, cfg)
}

// Probes places conventional EPE measure points on every target polygon.
func Probes(targets []Polygon, spacingNM float64) []Probe {
	return metrics.ProbesForLayout(targets, spacingNM)
}

// ---- MRC ----

// MRCRules holds the curvilinear mask-rule constraints.
type MRCRules = mrc.Rules

// MRCChecker runs mask rule checks over a Mask.
type MRCChecker = mrc.Checker

// MRCViolation is one rule violation.
type MRCViolation = mrc.Violation

// MRCResolveOptions tunes the violation resolver.
type MRCResolveOptions = mrc.ResolveOptions

// MRCResolveResult summarises one resolving run.
type MRCResolveResult = mrc.ResolveResult

// DefaultMRCRules returns the experiment rule set for OPC masks.
func DefaultMRCRules() MRCRules { return mrc.DefaultRules() }

// HybridMRCRules returns the near-writer-limit rule set used for ILT-fitted
// masks, whose assist decorations are legitimately thin.
func HybridMRCRules() MRCRules { return mrc.HybridRules() }

// DefaultMRCResolveOptions returns the resolver settings used by the
// experiments.
func DefaultMRCResolveOptions() MRCResolveOptions { return mrc.DefaultResolveOptions() }

// NewMRCChecker indexes the mask for rule checking.
func NewMRCChecker(m *Mask, rules MRCRules) *MRCChecker {
	return mrc.NewChecker(m, rules)
}

// ---- ILT + fitting ----

// ILTConfig tunes the pixel-ILT solver.
type ILTConfig = ilt.Config

// ILTResult is one ILT run.
type ILTResult = ilt.Result

// DefaultILTConfig returns OpenILT-style solver settings.
func DefaultILTConfig() ILTConfig { return ilt.DefaultConfig() }

// RunILT optimises a pixel mask for the 0/1 target image.
func RunILT(sim *Simulator, target *Field, cfg ILTConfig) *ILTResult {
	return ilt.Run(sim, target, cfg)
}

// RunILTContext is RunILT with cooperative cancellation: the context is
// checked between descent iterations; on cancellation the partial
// result is returned alongside ctx.Err().
func RunILTContext(ctx context.Context, sim *Simulator, target *Field, cfg ILTConfig) (*ILTResult, error) {
	return ilt.RunContext(ctx, sim, target, cfg)
}

// FitConfig tunes Algorithm 1 (spline fitting of ILT masks).
type FitConfig = fit.Config

// DefaultFitConfig returns the hybrid-flow fitting settings.
func DefaultFitConfig() FitConfig { return fit.DefaultConfig() }

// HybridResult is one ILT–OPC hybrid run (§III-G).
type HybridResult = exp.HybridResult

// Hybrid runs pixel ILT, fits the result with cardinal splines
// (Algorithm 1) and resolves MRC violations.
func Hybrid(sim *Simulator, targets []Polygon, iltCfg ILTConfig, fitCfg FitConfig, rules MRCRules) *HybridResult {
	return exp.Hybrid(sim, targets, iltCfg, fitCfg, rules)
}

// ---- Baselines ----

// SegConfig tunes the Manhattan segment-OPC baseline.
type SegConfig = baseline.SegConfig

// SegResult is one segment-OPC run.
type SegResult = baseline.SegResult

// SegmentOPC runs the conventional Manhattan OPC baseline.
func SegmentOPC(sim *Simulator, targets []Polygon, cfg SegConfig) *SegResult {
	return baseline.SegmentOPC(sim, targets, cfg)
}

// SegViaConfig / SegMetalConfig / SegLargeConfig return the baseline's
// per-experiment settings.
func SegViaConfig() SegConfig   { return baseline.SegViaConfig() }
func SegMetalConfig() SegConfig { return baseline.SegMetalConfig() }
func SegLargeConfig() SegConfig { return baseline.SegLargeConfig() }

// ---- Layouts ----

// Clip is one OPC testcase.
type Clip = layout.Clip

// Design is a large-scale layout (Table III).
type Design = layout.Design

// ViaClip returns via testcase i ∈ [1,13] (Table I structure).
func ViaClip(i int) Clip { return layout.ViaClip(i) }

// MetalClip returns metal testcase i ∈ [1,10] (Table II structure).
func MetalClip(i int) Clip { return layout.MetalClip(i) }

// LargeDesign returns "gcd", "aes" or "dynamicnode" (Table III structure).
func LargeDesign(name string) Design { return layout.LargeDesign(name) }

// ---- Mask data exchange & mask write cost ----

// GDSLibrary is a single-structure GDSII library.
type GDSLibrary = gds.Library

// NewGDSLibrary wraps mask polygons for GDSII export (1 nm database unit).
func NewGDSLibrary(name string, polys []Polygon) *GDSLibrary {
	return gds.NewLibrary(name, polys)
}

// ReadGDS parses a GDSII stream into a library.
func ReadGDS(r io.Reader) (*GDSLibrary, error) { return gds.Read(r) }

// Trapezoid is one VSB mask-writer shot.
type Trapezoid = fracture.Trapezoid

// FractureOptions tunes VSB fracturing.
type FractureOptions = fracture.Options

// FractureStats summarises a fractured layout (shot count, rect fraction,
// area, sliver height).
type FractureStats = fracture.Stats

// DefaultFractureOptions returns mask-writer-like fracturing settings.
func DefaultFractureOptions() FractureOptions { return fracture.DefaultOptions() }

// FractureMask decomposes mask polygons into VSB shots and aggregates the
// write-cost statistics.
func FractureMask(polys []Polygon, opt FractureOptions) ([]Trapezoid, FractureStats) {
	return fracture.FractureAll(polys, opt)
}

// ---- Process window ----

// PWCut is a CD measurement site for process-window analysis.
type PWCut = pw.Cut

// PWConfig tunes the exposure-defocus sweep.
type PWConfig = pw.Config

// PWindow is a full exposure-defocus analysis.
type PWindow = pw.Window

// DefaultPWConfig returns a 5x5 dose-defocus sweep with a ±10 % CD spec.
func DefaultPWConfig() PWConfig { return pw.DefaultConfig() }

// AnalyzeProcessWindow sweeps dose and defocus for one mask, measuring CD
// at the cut against targetCD.
func AnalyzeProcessWindow(base LithoConfig, mask *Field, cut PWCut, targetCD float64, cfg PWConfig) *PWindow {
	return pw.Analyze(base, mask, cut, targetCD, cfg)
}

// ---- Post-OPC verification (ORC) ----

// ORCDefect is one printability defect found by lithography rule checking.
type ORCDefect = orc.Defect

// ORCConfig tunes the ORC checks.
type ORCConfig = orc.Config

// DefaultORCConfig returns production-like ORC settings.
func DefaultORCConfig() ORCConfig { return orc.DefaultConfig() }

// VerifyORC images the mask across the process corners and reports bridges,
// necks, missing features and extra printing.
func VerifyORC(proc *Process, maskPolys, targets []Polygon, cfg ORCConfig) []ORCDefect {
	return orc.Verify(proc, maskPolys, targets, cfg)
}

// ---- Tiled large-layout OPC ----

// TiledConfig tunes the halo-stitched large-layout driver.
type TiledConfig = bigopc.Config

// TiledResult is one tiled run.
type TiledResult = bigopc.Result

// TiledOptimize corrects a layout larger than one optical window: tiles
// with halo context, goroutine-parallel, one owner per polygon.
func TiledOptimize(targets []Polygon, cfg TiledConfig) (*TiledResult, error) {
	return bigopc.Run(targets, cfg)
}
