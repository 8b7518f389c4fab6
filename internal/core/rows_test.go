package core

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
)

// TestStepImagesTheRowsItReads pins Step's row pruning: the step marks
// every row its shapes' probes read, on every marked row the image it
// computes equals the full image of the same raster bit for bit, and
// measuring the EPE on either image gives the same result. The hole
// case adds a hole loop clear of the vias' rows, so its probes mark rows
// no other shape marks.
func TestStepImagesTheRowsItReads(t *testing.T) {
	via512 := litho.NewSimulator(litho.DefaultConfig())
	v1, m1 := layout.ViaClip(1), layout.MetalClip(1)
	for _, tc := range []struct {
		name    string
		sim     *litho.Simulator
		targets []geom.Polygon
		cfg     Config
		hole    bool
	}{
		{"V1", via512, v1.Targets, ViaConfig(), false},
		{"M1", testSim(), m1.Targets, MetalConfig(), false},
		{"V1 with a hole loop", via512, v1.Targets, ViaConfig(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMask(tc.targets, tc.cfg)
			if tc.hole {
				// Via clips keep their vias 400 nm from the clip edge.
				hole := geom.Rect{Min: geom.P(90, 90), Max: geom.P(110, 110)}.Poly()
				m.AddHoleShapes([][]geom.Pt{UniformControlPoints(hole, 10)}, tc.cfg)
			}
			o := NewOptimizerWithMask(tc.sim, m, tc.targets, tc.cfg)
			full := raster.NewField(tc.sim.Grid())
			n := full.Size
			for it := 0; it < 8; it++ {
				o.Step(it)
				// o.field still holds the raster this step imaged.
				tc.sim.AerialInto(full, o.field, nil)
				marked := 0
				for y, sel := range o.rows {
					if !sel {
						continue
					}
					marked++
					for i := y * n; i < (y+1)*n; i++ {
						if math.Float64bits(o.aerial.Data[i]) != math.Float64bits(full.Data[i]) {
							t.Fatalf("step %d: pixel (%d,%d) = %v, full image %v", it, i%n, y, o.aerial.Data[i], full.Data[i])
						}
					}
				}
				if marked == 0 || marked == n {
					t.Fatalf("step %d marked %d of %d rows", it, marked, n)
				}
				cfg := metrics.EPEConfig{SearchNM: tc.cfg.EPECap * 3, ThresholdNM: tc.cfg.EPECap, Ith: tc.sim.Config().Threshold}
				for si, s := range o.mask.Shapes {
					if s.SRAF {
						continue
					}
					reads := make([]bool, n)
					metrics.MarkProbeRows(reads, tc.sim.Grid(), s.probes, cfg)
					for y, r := range reads {
						if r && !o.rows[y] {
							t.Fatalf("step %d: shape %d reads row %d, which the step did not mark", it, si, y)
						}
					}
					got, want := metrics.MeasureEPE(o.aerial, s.probes, cfg), metrics.MeasureEPE(full, s.probes, cfg)
					for i, e := range want.PerProbe {
						if math.Float64bits(got.PerProbe[i]) != math.Float64bits(e) {
							t.Fatalf("step %d: probe %d EPE %v on the step's image, %v on the full one", it, i, got.PerProbe[i], e)
						}
					}
				}
			}
		})
	}
}
