package litho

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"cardopc/internal/fft"
	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

// testConfig is a small, fast imager for unit tests: 256 px @ 8 nm covers
// the same 2048 nm extent as the default config.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.GridSize = 256
	cfg.PitchNM = 8
	return cfg
}

func maskWithRect(g raster.Grid, r geom.Rect) *raster.Field {
	f := raster.NewField(g)
	f.FillPolygon(r.Poly(), 4)
	f.Clamp01()
	return f
}

func TestNewSimulatorPanicsOnBadGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-pow2 grid")
		}
	}()
	cfg := testConfig()
	cfg.GridSize = 300
	NewSimulator(cfg)
}

func TestClearFieldNormalisation(t *testing.T) {
	// A fully transparent mask images to intensity ~1 everywhere away from
	// the (circular-convolution) boundary.
	cfg := testConfig()
	s := NewSimulator(cfg)
	mask := raster.NewField(s.Grid())
	for i := range mask.Data {
		mask.Data[i] = 1
	}
	aer := s.Aerial(mask)
	c := aer.At(128, 128)
	if math.Abs(c-1) > 0.02 {
		t.Errorf("clear field intensity = %v, want ~1", c)
	}
}

func TestDarkFieldIsDark(t *testing.T) {
	s := NewSimulator(testConfig())
	mask := raster.NewField(s.Grid())
	aer := s.Aerial(mask)
	if aer.Sum() > 1e-9 {
		t.Errorf("dark field has energy %v", aer.Sum())
	}
}

func TestLargeFeaturePrintsNearTarget(t *testing.T) {
	// A 400 nm square prints with area within ~20% of the drawn area at the
	// default threshold.
	s := NewSimulator(testConfig())
	rect := geom.Rect{Min: geom.P(824, 824), Max: geom.P(1224, 1224)}
	mask := maskWithRect(s.Grid(), rect)
	printed := s.Printed(mask)
	pxArea := float64(printed.Count()) * s.Grid().Pitch * s.Grid().Pitch
	want := rect.Area()
	if math.Abs(pxArea-want)/want > 0.2 {
		t.Errorf("printed area = %v, drawn %v", pxArea, want)
	}
}

func TestTinyFeatureDoesNotPrint(t *testing.T) {
	// A 10 nm square is far below resolution and must not print.
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(1019, 1019), Max: geom.P(1029, 1029)})
	if n := s.Printed(mask).Count(); n != 0 {
		t.Errorf("sub-resolution feature printed %d px", n)
	}
}

func TestCornerRounding(t *testing.T) {
	// Lithography rounds square corners: the printed contour's bounding box
	// corner pixel should not print while the feature's centre edge does.
	s := NewSimulator(testConfig())
	rect := geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)}
	mask := maskWithRect(s.Grid(), rect)
	aer := s.Aerial(mask)
	cornerI := aer.Bilinear(geom.P(874, 874))
	edgeMidI := aer.Bilinear(geom.P(1024, 874))
	if cornerI >= edgeMidI {
		t.Errorf("corner intensity %v >= edge-mid intensity %v; expected rounding", cornerI, edgeMidI)
	}
}

func TestDoseScalesIntensity(t *testing.T) {
	cfg := testConfig()
	lo := NewSimulator(cfg)
	cfg.Dose = 1.1
	hi := NewSimulator(cfg)
	mask := maskWithRect(lo.Grid(), geom.Rect{Min: geom.P(924, 924), Max: geom.P(1124, 1124)})
	aLo := lo.Aerial(mask)
	aHi := hi.Aerial(mask)
	r := aHi.At(128, 128) / aLo.At(128, 128)
	if math.Abs(r-1.1) > 1e-9 {
		t.Errorf("dose ratio = %v, want 1.1", r)
	}
}

func TestDefocusBlurs(t *testing.T) {
	// Defocus reduces peak intensity of a small feature.
	cfg := testConfig()
	foc := NewSimulator(cfg)
	cfg.DefocusNM = 80
	def := NewSimulator(cfg)
	mask := maskWithRect(foc.Grid(), geom.Rect{Min: geom.P(984, 984), Max: geom.P(1064, 1064)})
	pFoc := foc.Aerial(mask).Bilinear(geom.P(1024, 1024))
	pDef := def.Aerial(mask).Bilinear(geom.P(1024, 1024))
	if pDef >= pFoc {
		t.Errorf("defocused peak %v >= focused peak %v", pDef, pFoc)
	}
}

func TestProximityEffect(t *testing.T) {
	// Two nearby features interact: intensity between them is higher than
	// the same point with a single feature (constructive flare).
	s := NewSimulator(testConfig())
	a := geom.Rect{Min: geom.P(880, 960), Max: geom.P(980, 1090)}
	b := geom.Rect{Min: geom.P(1060, 960), Max: geom.P(1160, 1090)}
	single := maskWithRect(s.Grid(), a)
	double := maskWithRect(s.Grid(), a)
	double.FillPolygon(b.Poly(), 4)
	double.Clamp01()
	mid := geom.P(1020, 1024)
	iSingle := s.Aerial(single).Bilinear(mid)
	iDouble := s.Aerial(double).Bilinear(mid)
	if iDouble <= iSingle {
		t.Errorf("no proximity interaction: %v <= %v", iDouble, iSingle)
	}
}

func TestContoursOfSquare(t *testing.T) {
	s := NewSimulator(testConfig())
	rect := geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)}
	mask := maskWithRect(s.Grid(), rect)
	cs := s.Contours(mask)
	if len(cs) != 1 {
		t.Fatalf("contours = %d, want 1", len(cs))
	}
	// Contour centroid is near the feature centre.
	if c := cs[0].Centroid(); c.Dist(geom.P(1024, 1024)) > 10 {
		t.Errorf("contour centroid = %v", c)
	}
}

func TestAerialFromFreqMatchesAerial(t *testing.T) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(900, 900), Max: geom.P(1100, 1100)})
	a := s.Aerial(mask)
	b := s.AerialFromFreq(MaskFreqInto(fft.NewGrid2(mask.Size, mask.Size), mask))
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestProcessCornersSpanABand(t *testing.T) {
	// Over-exposure must print at least as much as nominal at equal focus,
	// and the three corners must disagree somewhere (nonzero PV band).
	// Note defocus can either shrink or grow the printed region depending
	// on where the threshold sits relative to the blurred edge intensity,
	// so no strict ordering is asserted for the defocused inner corner.
	p := NewProcess(testConfig(), DefaultCorners())
	mask := maskWithRect(p.Nominal.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	nom, inner, outer := p.PrintedAll(mask)
	if outer.Count() < nom.Count() {
		t.Errorf("over-exposed corner prints less than nominal: %d < %d",
			outer.Count(), nom.Count())
	}
	union, inter := 0, 0
	for i := range nom.Data {
		on := nom.Data[i] != 0 || inner.Data[i] != 0 || outer.Data[i] != 0
		all := nom.Data[i] != 0 && inner.Data[i] != 0 && outer.Data[i] != 0
		if on {
			union++
		}
		if all {
			inter++
		}
	}
	if union <= inter {
		t.Errorf("process window has zero width: union %d, intersection %d", union, inter)
	}
}

func TestNumKernels(t *testing.T) {
	s := NewSimulator(testConfig())
	if s.NumKernels() < 8 {
		t.Errorf("kernels = %d, want >= 8 for annular source", s.NumKernels())
	}
}

// BenchmarkAerial256 measures the steady-state forward simulation — the
// AerialInto path the correction loop runs every iteration, with the
// output field preallocated and all scratch drawn from the fft pool.
func BenchmarkAerial256(b *testing.B) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	out := raster.NewField(s.Grid())
	steadyState(b, func() { s.AerialInto(raster.NewField(s.Grid()), mask, nil) })
	for i := 0; i < b.N; i++ {
		s.AerialInto(out, mask, nil)
	}
}

// steadyState warms the fft pools for benchmark b, turns the GC off for
// the rest of it and resets the timer. A GC empties those pools and the
// next calls refill them, so with it on a pooled benchmark's B/op swings
// with when collections happen to fall; with it off B/op counts only
// what a warm call allocates, as core's TestStepSteadyStateBytes does.
// The pools are per P, and a P's private slot is invisible to the
// others, so a serial warm-up leaves the Ps it never ran on cold: warm
// runs on GOMAXPROCS goroutines at a time, four rounds, each call with
// its own output, so every P has drawn and returned the call's scratch
// before the timer starts.
func steadyState(b *testing.B, warm func()) {
	old := debug.SetGCPercent(-1)
	b.Cleanup(func() { debug.SetGCPercent(old) })
	for range 4 {
		var wg sync.WaitGroup
		for range runtime.GOMAXPROCS(0) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				warm()
			}()
		}
		wg.Wait()
	}
	b.ResetTimer()
}

// BenchmarkGradient256 measures the adjoint gradient evaluation — the
// other half of every OPC/ILT iteration next to BenchmarkAerial256, and
// part of the tracked set gated by cmd/benchdiff.
func BenchmarkGradient256(b *testing.B) {
	s := NewSimulator(testConfig())
	mask := maskWithRect(s.Grid(), geom.Rect{Min: geom.P(874, 874), Max: geom.P(1174, 1174)})
	cache := s.NewForwardCache()
	defer cache.Release()
	aerial := s.AerialWithCacheInto(raster.NewField(s.Grid()), cache, mask)
	// A quadratic-loss gradient against a mid-intensity target keeps G
	// deterministic and representative of the optimizer's input.
	G := make([]float64, len(aerial.Data))
	for i, v := range aerial.Data {
		G[i] = 2 * (v - 0.5)
	}
	grad := make([]float64, len(G))
	steadyState(b, func() { s.GradientFromCacheInto(make([]float64, len(G)), cache, G) })
	for i := 0; i < b.N; i++ {
		s.GradientFromCacheInto(grad, cache, G)
	}
}

// BenchmarkMaskFreqReal measures the real-input mask transform — the
// front of every imaging call, retargeted from the full complex FFT at
// the half-spectrum path. Part of the tracked set gated by cmd/benchdiff.
func BenchmarkMaskFreqReal(b *testing.B) {
	cfg := DefaultConfig()
	g := raster.Grid{Size: cfg.GridSize, Pitch: cfg.PitchNM}
	mask := maskWithRect(g, geom.Rect{Min: geom.P(874, 874), Max: geom.P(1474, 1474)})
	mf := fft.NewGrid2(mask.Size, mask.Size)
	steadyState(b, func() { MaskFreqInto(fft.NewGrid2(mask.Size, mask.Size), mask) })
	for i := 0; i < b.N; i++ {
		MaskFreqInto(mf, mask)
	}
}
