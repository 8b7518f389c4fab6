package litho

import (
	"math"
	"testing"

	"cardopc/internal/fft"
	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

func TestSharedCornerKernels(t *testing.T) {
	// The SOCS kernels depend on the optics (and defocus) but not on dose,
	// so the dose-only outer corner must adopt the nominal kernel set
	// rather than rebuilding it.
	p := NewProcess(testConfig(), DefaultCorners())
	if p.Outer.kernels[0] != p.Nominal.kernels[0] {
		t.Error("dose-only outer corner rebuilt its kernels instead of sharing")
	}
	// The defocused inner corner images through different kernels.
	if p.Inner.kernels[0] == p.Nominal.kernels[0] {
		t.Error("defocused inner corner shares nominal kernels")
	}
	// With zero corner defocus all three corners share one set.
	p0 := NewProcess(testConfig(), CornerSpec{DoseDelta: 0.02})
	if p0.Inner.kernels[0] != p0.Nominal.kernels[0] {
		t.Error("focus-matched inner corner rebuilt its kernels")
	}
	// Dose still differs across the shared-kernel corners.
	if p0.Inner.cfg.Dose == p0.Outer.cfg.Dose {
		t.Error("corner doses collapsed")
	}
}

func TestAerialAllMatchesSequential(t *testing.T) {
	// The three-corner evaluation — one nominal sweep scaled per dose
	// corner, a defocused corner swept concurrently — must be
	// bit-identical to imaging each corner on its own.
	for _, tc := range []struct {
		name string
		dose float64
		spec CornerSpec
	}{
		{"default corners", 1, DefaultCorners()},
		// No defocus: all three corners share one kernel set, so both
		// inner and outer come from scaling the nominal sweep.
		{"dose-only corners", 1, CornerSpec{DoseDelta: 0.02}},
		// A non-unit nominal dose scales the nominal image too.
		{"nominal dose 0.9", 0.9, DefaultCorners()},
	} {
		cfg := testConfig()
		cfg.Dose = tc.dose
		p := NewProcess(cfg, tc.spec)
		mask := maskWithRect(p.Nominal.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
		nom, inner, outer := p.AerialAll(mask)
		mf := MaskFreqInto(fft.NewGrid2(mask.Size, mask.Size), mask)
		for _, c := range []struct {
			name string
			got  *raster.Field
			sim  *Simulator
		}{{"nominal", nom, p.Nominal}, {"inner", inner, p.Inner}, {"outer", outer, p.Outer}} {
			want := c.sim.AerialFromFreqInto(raster.NewField(c.sim.Grid()), mf)
			for i := range want.Data {
				if c.got.Data[i] != want.Data[i] {
					t.Fatalf("%s: %s corner differs at pixel %d: %v vs %v", tc.name, c.name, i, c.got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestForwardCacheReuse(t *testing.T) {
	// A cache reused across iterations (the ILT steady state) must produce
	// the same aerial image and gradient as a fresh evaluation.
	s := NewSimulator(testConfig())
	m1 := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	m2 := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(500, 700), Max: geom.P(900, 1000)})
	cache := s.NewForwardCache()
	defer cache.Release()
	out := s.Aerial(m1) // scratch shape for the cached path
	s.AerialWithCacheInto(out, cache, m1)
	s.AerialWithCacheInto(out, cache, m2) // second pass overwrites in place
	want := s.Aerial(m2)
	for i := range out.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("cached aerial differs at pixel %d", i)
		}
	}
	G := make([]float64, len(out.Data))
	for i, v := range out.Data {
		G[i] = 2 * (v - 0.5)
	}
	grad := make([]float64, len(G))
	s.GradientFromCacheInto(grad, cache, G)
	freshCache := s.NewForwardCache()
	defer freshCache.Release()
	s.AerialWithCacheInto(raster.NewField(s.Grid()), freshCache, m2)
	wantGrad := s.GradientFromCacheInto(make([]float64, len(G)), freshCache, G)
	for i := range grad {
		if grad[i] != wantGrad[i] {
			t.Fatalf("cached gradient differs at element %d", i)
		}
	}
	// Release keeps the cache usable: the next pass redraws pooled grids.
	cache.Release()
	s.AerialWithCacheInto(out, cache, m1)
	want1 := s.Aerial(m1)
	for i := range out.Data {
		if math.Abs(out.Data[i]-want1.Data[i]) != 0 {
			t.Fatalf("post-Release aerial differs at pixel %d", i)
		}
	}
}
