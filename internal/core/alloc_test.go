// The race detector's sync.Pool drops pooled values at random, so bytes
// per step would measure the pools rather than Step.

//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cardopc/internal/geom"
)

// TestStepSteadyStateBytes pins Step's //cardopc:noalloc contract in
// bytes: after warm-up a correction step may allocate fan-out
// bookkeeping, but not a raster. GC is off from warm-up on, so pooled
// scratch stays warm and TotalAlloc counts every byte the steps draw.
// The hole case is the ILT-initialised refine flow, whose fitted masks
// carry hole loops. Twenty steps average out the odd cold pool slot of
// a P that has not run a given size yet.
func TestStepSteadyStateBytes(t *testing.T) {
	sim := testSim()
	rasterBytes := uint64(sim.Grid().Size * sim.Grid().Size * 8)
	cfg := ViaConfig()
	targets := []geom.Polygon{centredSquare(70)}
	for _, tc := range []struct {
		name  string
		holes bool
	}{{"via", false}, {"via with a hole loop", true}} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMask(targets, cfg)
			if tc.holes {
				m.AddHoleShapes([][]geom.Pt{UniformControlPoints(centredSquare(20), 10)}, cfg)
			}
			o := NewOptimizerWithMask(sim, m, targets, cfg)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const warm, steps = 5, 20
			for it := 0; it < warm; it++ {
				o.Step(it)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for it := warm; it < warm+steps; it++ {
				o.Step(it)
			}
			runtime.ReadMemStats(&after)
			perStep := (after.TotalAlloc - before.TotalAlloc) / steps
			if perStep > rasterBytes/2 {
				t.Errorf("Step allocates %d B per step, budget %d (half a %d B raster)", perStep, rasterBytes/2, rasterBytes)
			}
			t.Logf("%d B per step", perStep)
		})
	}
}
