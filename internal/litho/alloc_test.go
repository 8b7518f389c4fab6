package litho

import (
	"testing"

	"cardopc/internal/fft"
	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

// The steady-state simulation paths must run out of pooled scratch: after a
// warm-up pass the per-call allocations are bounded by small fixed-size
// bookkeeping (worker slices, closures, goroutine starts), independent of
// the grid size. The budget is object counts, sized to absorb the race
// detector's own instrumentation allocations; per-pixel buffer churn (the
// pre-pool behaviour was thousands of objects per call) still trips it.
const steadyStateAllocBudget = 300

func TestAerialIntoSteadyStateAllocs(t *testing.T) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	out := raster.NewField(s.Grid())
	s.AerialInto(out, mask, nil) // warm the pools
	if n := testing.AllocsPerRun(5, func() { s.AerialInto(out, mask, nil) }); n > steadyStateAllocBudget {
		t.Errorf("AerialInto allocates %.0f objects/op, budget %d", n, steadyStateAllocBudget)
	}
}

func TestAerialFromFreqIntoSteadyStateAllocs(t *testing.T) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	mf := MaskFreqInto(fft.NewGrid2(mask.Size, mask.Size), mask)
	out := raster.NewField(s.Grid())
	s.AerialFromFreqInto(out, mf)
	if n := testing.AllocsPerRun(5, func() { s.AerialFromFreqInto(out, mf) }); n > steadyStateAllocBudget {
		t.Errorf("AerialFromFreqInto allocates %.0f objects/op, budget %d", n, steadyStateAllocBudget)
	}
}

func TestGradientFromCacheIntoSteadyStateAllocs(t *testing.T) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	cache := s.NewForwardCache()
	defer cache.Release()
	out := raster.NewField(s.Grid())
	s.AerialWithCacheInto(out, cache, mask)
	G := make([]float64, len(out.Data))
	for i, v := range out.Data {
		G[i] = 2 * (v - 0.5)
	}
	grad := make([]float64, len(G))
	s.GradientFromCacheInto(grad, cache, G)
	if n := testing.AllocsPerRun(5, func() { s.GradientFromCacheInto(grad, cache, G) }); n > steadyStateAllocBudget {
		t.Errorf("GradientFromCacheInto allocates %.0f objects/op, budget %d", n, steadyStateAllocBudget)
	}
}

func TestAerialWithCacheIntoSteadyStateAllocs(t *testing.T) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	cache := s.NewForwardCache()
	defer cache.Release()
	out := raster.NewField(s.Grid())
	s.AerialWithCacheInto(out, cache, mask)
	if n := testing.AllocsPerRun(5, func() { s.AerialWithCacheInto(out, cache, mask) }); n > steadyStateAllocBudget {
		t.Errorf("AerialWithCacheInto allocates %.0f objects/op, budget %d", n, steadyStateAllocBudget)
	}
}

func TestPrintedSteadyStateAllocs(t *testing.T) {
	// Printed's aerial image lives in pooled scratch; per call it may
	// allocate only the returned binary plus the usual fan-out
	// bookkeeping.
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	s.Printed(mask)
	if n := testing.AllocsPerRun(5, func() { s.Printed(mask) }); n > steadyStateAllocBudget {
		t.Errorf("Printed allocates %.0f objects/op, budget %d", n, steadyStateAllocBudget)
	}
}

func TestContoursSteadyStateAllocs(t *testing.T) {
	// Contours allocates the returned geometry and marching-squares
	// bookkeeping (contour-length bound), but no longer a full aerial
	// field per call; the budget is sized for the test feature's contour,
	// far below per-pixel churn.
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	s.Contours(mask)
	const contourAllocBudget = 2500
	if n := testing.AllocsPerRun(5, func() { s.Contours(mask) }); n > contourAllocBudget {
		t.Errorf("Contours allocates %.0f objects/op, budget %d", n, contourAllocBudget)
	}
}

// BenchmarkAerialAll512 exercises the full default-resolution process
// window — three corners over one mask spectrum, dose-only corners sharing
// the nominal kernel set and all corners running concurrently. Part of the
// tracked set gated by cmd/benchdiff.
func BenchmarkAerialAll512(b *testing.B) {
	p := NewProcess(DefaultConfig(), DefaultCorners())
	mask := maskWithRect(p.Nominal.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1474, 1474)})
	mf := fft.GetGrid(mask.Size, mask.Size)
	MaskFreqInto(mf, mask)
	defer fft.PutGrid(mf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AerialAllFromFreq(mf)
	}
}
