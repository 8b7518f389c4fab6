package litho

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

func TestAerialWithCacheMatchesAerial(t *testing.T) {
	cfg := testConfig()
	cfg.GridSize = 128
	cfg.PitchNM = 16
	s := NewSimulator(cfg)
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(900, 900), Max: geom.P(1150, 1150)})
	a := s.Aerial(mask)
	cache := s.NewForwardCache()
	defer cache.Release()
	b := s.AerialWithCacheInto(raster.NewField(s.Grid()), cache, mask)
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatalf("aerial mismatch at %d", i)
		}
	}
	if len(cache.amps) != s.NumKernels() {
		t.Errorf("cache holds %d amps, want %d", len(cache.amps), s.NumKernels())
	}
}

// TestGradientMatchesFiniteDifference verifies the adjoint against central
// finite differences of the scalar loss L = Σ G0⊙I for a fixed weighting G0
// (so ∂L/∂I = G0 exactly, isolating the mask adjoint). At 64 px @ 32 nm
// the band grid is the raster (m = n); at 128 px @ 16 nm it is the 64²
// grid, so the low-pass of G and the small-grid correlation are checked
// against the loss itself.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	for _, c := range []struct {
		n     int
		pitch float64
	}{{64, 32}, {128, 16}} {
		cfg := testConfig()
		cfg.GridSize = c.n
		cfg.PitchNM = c.pitch
		cfg.SourceRings = 1
		s := NewSimulator(cfg)
		g := s.Grid()
		mask := raster.NewField(g)
		// A small blob of fractional transmission at the centre.
		o := c.n/2 - 32
		for y := 28; y < 36; y++ {
			for x := 28; x < 36; x++ {
				mask.Set(o+x, o+y, 0.7)
			}
		}
		// Fixed weighting concentrated near the blob.
		G := make([]float64, len(mask.Data))
		for y := 24; y < 40; y++ {
			for x := 24; x < 40; x++ {
				G[(o+y)*g.Size+o+x] = 0.5 + 0.1*float64(x-y)
			}
		}
		lossOf := func(m *raster.Field) float64 {
			a := s.Aerial(m)
			l := 0.0
			for i, v := range a.Data {
				l += G[i] * v
			}
			return l
		}

		cache := s.NewForwardCache()
		s.AerialWithCacheInto(raster.NewField(g), cache, mask)
		grad := s.GradientFromCacheInto(make([]float64, len(G)), cache, G)
		cache.Release()

		h := 1e-4
		checks := [][2]int{{30, 30}, {33, 31}, {28, 35}, {20, 20}, {36, 32}}
		for _, p := range checks {
			idx := (o+p[1])*g.Size + o + p[0]
			orig := mask.Data[idx]
			mask.Data[idx] = orig + h
			lp := lossOf(mask)
			mask.Data[idx] = orig - h
			lm := lossOf(mask)
			mask.Data[idx] = orig
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-grad[idx]) > 1e-3*math.Max(1, math.Abs(fd)) {
				t.Errorf("%d px: pixel (%d,%d): fd %v vs adjoint %v", c.n, o+p[0], o+p[1], fd, grad[idx])
			}
		}
	}
}

func TestGradientIncludesDose(t *testing.T) {
	cfg := testConfig()
	cfg.GridSize = 64
	cfg.PitchNM = 32
	cfg.SourceRings = 1
	s1 := NewSimulator(cfg)
	cfg.Dose = 2
	s2 := NewSimulator(cfg)
	mask := raster.NewField(s1.Grid())
	for y := 28; y < 36; y++ {
		for x := 28; x < 36; x++ {
			mask.Set(x, y, 0.8)
		}
	}
	G := make([]float64, len(mask.Data))
	for i := range G {
		G[i] = 1
	}
	gradient := func(s *Simulator) []float64 {
		cache := s.NewForwardCache()
		defer cache.Release()
		s.AerialWithCacheInto(raster.NewField(s.Grid()), cache, mask)
		return s.GradientFromCacheInto(make([]float64, len(G)), cache, G)
	}
	g1, g2 := gradient(s1), gradient(s2)
	idx := 30*64 + 30
	if math.Abs(g2[idx]-2*g1[idx]) > 1e-9*math.Abs(g1[idx]) {
		t.Errorf("dose chain rule: %v vs 2×%v", g2[idx], g1[idx])
	}
}
