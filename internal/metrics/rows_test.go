package metrics_test

import (
	"fmt"
	"math"
	"testing"

	"cardopc/internal/core"
	"cardopc/internal/geom"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
)

// checkRowsCover fills every row MarkProbeRows leaves unmarked with NaN
// and requires MeasureEPE to return the same bits on the poisoned field
// as on the clean one. A NaN row that changes no threshold comparison
// would slip past that, so every point MeasureEPE samples must also
// read the same bits from both fields. It returns the clean result.
func checkRowsCover(t *testing.T, f *raster.Field, probes []metrics.Probe, cfg metrics.EPEConfig) metrics.EPEResult {
	t.Helper()
	rows := make([]bool, f.Size)
	metrics.MarkProbeRows(rows, f.Grid, probes, cfg)
	poisoned := f.Clone()
	for y, marked := range rows {
		if !marked {
			for i := range poisoned.Data[y*f.Size : (y+1)*f.Size] {
				poisoned.Data[y*f.Size+i] = math.NaN()
			}
		}
	}
	for _, pr := range probes {
		for _, p := range metrics.ProbeSamples(pr, f.Pitch, cfg) {
			if got, want := poisoned.Bilinear(p), f.Bilinear(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("probe %+v: sample %v reads %v from the marked rows, %v from the whole field", pr, p, got, want)
			}
		}
	}
	want := metrics.MeasureEPE(f, probes, cfg)
	got := metrics.MeasureEPE(poisoned, probes, cfg)
	for i, e := range want.PerProbe {
		if math.Float64bits(got.PerProbe[i]) != math.Float64bits(e) {
			t.Fatalf("probe %d %+v: EPE %v on the marked rows, %v on the whole field", i, probes[i], got.PerProbe[i], e)
		}
	}
	if math.Float64bits(got.SumAbs) != math.Float64bits(want.SumAbs) || got.Violations != want.Violations || got.Unresolved != want.Unresolved {
		t.Fatalf("marked rows give Σ|EPE| %v, %d violations, %d unresolved; whole field %v, %d, %d",
			got.SumAbs, got.Violations, got.Unresolved, want.SumAbs, want.Violations, want.Unresolved)
	}
	return want
}

func TestMarkProbeRowsCoversMeasureEPE(t *testing.T) {
	// The probe sets of the Table I and II flows, measured on each clip's
	// uncorrected aerial image: the correction step's control-point
	// probes with its EPE config, and the evaluation's layout probes with
	// the default one. Three extra probes sit within one search range of
	// the raster edge, and in empty space where no edge prints, so the
	// unresolved fallback sample is read.
	for _, c := range []struct {
		n     int
		pitch float64
	}{{512, 4}, {256, 8}, {128, 16}} {
		cfg := litho.DefaultConfig()
		cfg.GridSize, cfg.PitchNM = c.n, c.pitch
		sim := litho.NewSimulator(cfg)
		g := sim.Grid()
		ith := cfg.Threshold
		var clips []layout.Clip
		for i := 1; i <= layout.NumViaClips; i++ {
			clips = append(clips, layout.ViaClip(i))
		}
		for i := 1; i <= layout.NumMetalClips; i++ {
			clips = append(clips, layout.MetalClip(i))
		}
		unresolved := 0
		for _, clip := range clips {
			t.Run(fmt.Sprintf("%d@%g/%s", c.n, c.pitch, clip.Name), func(t *testing.T) {
				ocfg := core.ViaConfig()
				if clip.Name[0] == 'M' {
					ocfg = core.MetalConfig()
				}
				aerial := sim.Aerial(raster.Rasterize(g, clip.Targets, 4))
				var ctrl []metrics.Probe
				for _, s := range core.NewMask(clip.Targets, ocfg).Shapes {
					if !s.SRAF {
						for i := range s.Anchor {
							ctrl = append(ctrl, metrics.Probe{Pos: s.Anchor[i], Normal: s.Normal[i]})
						}
					}
				}
				ext := float64(g.Size) * g.Pitch
				ctrl = append(ctrl,
					metrics.Probe{Pos: geom.P(ext/2, 10), Normal: geom.P(0, -1)},
					metrics.Probe{Pos: geom.P(ext/3, ext-30), Normal: geom.P(0.6, 0.8)},
					metrics.Probe{Pos: geom.P(5, 5), Normal: geom.P(-1, 0)})
				stepCfg := metrics.EPEConfig{SearchNM: ocfg.EPECap * 3, ThresholdNM: ocfg.EPECap, Ith: ith}
				unresolved += checkRowsCover(t, aerial, ctrl, stepCfg).Unresolved
				checkRowsCover(t, aerial, metrics.ProbesForLayout(clip.Targets, ocfg.ProbeSpacing), metrics.DefaultEPEConfig(ith))
			})
		}
		if unresolved == 0 {
			t.Errorf("%d@%g: no probe was unresolved, so the fallback sample went untested", c.n, c.pitch)
		}
	}
}

// fuzzField is a 32 px field at pitch holding a blurred disc whose edge
// crosses the usual resist thresholds.
func fuzzField(pitch float64) *raster.Field {
	g := raster.Grid{Size: 32, Pitch: pitch}
	f := raster.NewField(g)
	c := float64(g.Size) * g.Pitch / 2
	for y := 0; y < g.Size; y++ {
		for x := 0; x < g.Size; x++ {
			p := g.ToWorld(float64(x), float64(y))
			r := math.Hypot(p.X-c, p.Y-c)
			f.Set(x, y, 0.6/(1+math.Exp((r-c/2)/(2*pitch))))
		}
	}
	return f
}

// FuzzMarkProbeRows checks the row set against MeasureEPE for one probe
// placed on, near or off a small raster, with any normal, pitch, search
// range and threshold: no panic, and the NaN-poisoned field measures the
// same as the clean one.
func FuzzMarkProbeRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y, nx, ny, pitch, searchNM, ith float64) {
		for _, v := range []float64{x, y, nx, ny, pitch, searchNM, ith} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// Fold the inputs into range: a 0.5–64.5 nm pitch, a search
		// range under 64 px, positions within two rasters of the
		// origin, normals up to length 4·√2.
		pitch = 0.5 + math.Mod(math.Abs(pitch), 64)
		fld := fuzzField(pitch)
		ext := float64(fld.Size) * fld.Pitch
		cfg := metrics.EPEConfig{SearchNM: math.Mod(math.Abs(searchNM), 64*pitch), ThresholdNM: 15, Ith: math.Mod(math.Abs(ith), 1.2)}
		probe := metrics.Probe{
			Pos:    geom.P(math.Mod(x, 2*ext), math.Mod(y, 2*ext)),
			Normal: geom.P(math.Mod(nx, 4), math.Mod(ny, 4)),
		}
		checkRowsCover(t, fld, []metrics.Probe{probe}, cfg)
	})
}
