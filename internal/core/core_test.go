package core

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
	"cardopc/internal/spline"
)

// testSim returns a small fast simulator shared by the package tests.
var sharedSim *litho.Simulator

func testSim() *litho.Simulator {
	if sharedSim == nil {
		cfg := litho.DefaultConfig()
		cfg.GridSize = 256
		cfg.PitchNM = 8
		sharedSim = litho.NewSimulator(cfg)
	}
	return sharedSim
}

func centredSquare(side float64) geom.Polygon {
	c := 1024.0
	h := side / 2
	return geom.Rect{Min: geom.P(c-h, c-h), Max: geom.P(c+h, c+h)}.Poly()
}

func TestNewMaskStructure(t *testing.T) {
	cfg := ViaConfig()
	targets := []geom.Polygon{centredSquare(70)}
	m := NewMask(targets, cfg)
	mains := 0
	srafs := 0
	for _, s := range m.Shapes {
		if s.SRAF {
			srafs++
		} else {
			mains++
		}
	}
	if mains != 1 {
		t.Fatalf("main shapes = %d", mains)
	}
	if srafs == 0 {
		t.Error("expected SRAFs with SRAF.Enable")
	}
	if m.NumControlPoints() <= 16 {
		t.Errorf("control points = %d", m.NumControlPoints())
	}
	// Disable SRAFs.
	cfg.SRAF.Enable = false
	m2 := NewMask(targets, cfg)
	if len(m2.Shapes) != 1 {
		t.Errorf("shapes without SRAF = %d", len(m2.Shapes))
	}
}

func TestShapeNormalsPointOutward(t *testing.T) {
	cfg := ViaConfig()
	sq := centredSquare(70)
	s := NewShape(ctrlPositions(sq, cfg), cfg.Spline, cfg.Tension, false)
	poly := s.PolyCopy(8)
	for i := range s.Ctrl {
		probe := s.Ctrl[i].Add(s.Normal[i].Mul(10))
		if poly.Contains(probe) {
			t.Errorf("normal %d points inward", i)
		}
	}
}

func TestMaskRasterizeMatchesPolygons(t *testing.T) {
	cfg := ViaConfig()
	cfg.SRAF.Enable = false
	m := NewMask([]geom.Polygon{centredSquare(200)}, cfg)
	g := raster.Grid{Size: 256, Pitch: 8}
	f := m.Rasterize(g, 8, 4)
	wantArea := m.Polygons(8)[0].Area()
	gotArea := f.Sum() * g.Pitch * g.Pitch
	if math.Abs(gotArea-wantArea)/wantArea > 0.02 {
		t.Errorf("raster area %v vs polygon area %v", gotArea, wantArea)
	}
}

// BenchmarkRasterizeVia512 renders the correction step's mask raster:
// each op paints one of V1–V13's initial masks, spline-sampled with
// SRAFs (21 shapes and 1,250 vertices on average), onto the 512 px @ 4 nm
// raster of clip_via512 through one reused painter, as Step does.
func BenchmarkRasterizeVia512(b *testing.B) {
	cfg := ViaConfig()
	masks := make([]*Mask, layout.NumViaClips)
	for i := range masks {
		masks[i] = NewMask(layout.ViaClip(i+1).Targets, cfg)
	}
	paint := raster.NewPainter(raster.NewField(raster.Grid{Size: 512, Pitch: 4}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		masks[i%len(masks)].rasterizeInto(paint, nil, cfg.SamplesPerSeg, 4)
	}
}

func TestInsertSRAFsGeometry(t *testing.T) {
	cfg := ViaConfig().SRAF
	targets := []geom.Polygon{centredSquare(70)}
	srafs := InsertSRAFs(targets, cfg)
	if len(srafs) != 4 {
		t.Fatalf("srafs = %d, want 4 (one per via edge)", len(srafs))
	}
	for i, s := range srafs {
		// Right length and width.
		b := s.Bounds()
		long := math.Max(b.W(), b.H())
		short := math.Min(b.W(), b.H())
		if math.Abs(long-cfg.Ratio*70) > 1 {
			t.Errorf("sraf %d length = %v", i, long)
		}
		if math.Abs(short-cfg.Width) > 1 {
			t.Errorf("sraf %d width = %v", i, short)
		}
		// Correct standoff from the main pattern.
		if d := geom.PolyDist(s, targets[0]); math.Abs(d-cfg.Distance) > 1 {
			t.Errorf("sraf %d distance = %v, want %v", i, d, cfg.Distance)
		}
	}
}

func TestInsertSRAFsSkipsCrowded(t *testing.T) {
	cfg := ViaConfig().SRAF
	// Two vias closer than 2·(distance+width): the facing edges' SRAFs
	// would collide, so fewer than 8 bars appear.
	a := geom.Rect{Min: geom.P(1000, 1000), Max: geom.P(1070, 1070)}.Poly()
	b := geom.Rect{Min: geom.P(1160, 1000), Max: geom.P(1230, 1070)}.Poly()
	srafs := InsertSRAFs([]geom.Polygon{a, b}, cfg)
	if len(srafs) >= 8 {
		t.Errorf("crowded insertion produced %d srafs", len(srafs))
	}
	for i, s := range srafs {
		if d := geom.PolyDist(s, a); d < cfg.Distance*0.8-1e-9 {
			t.Errorf("sraf %d too close to a: %v", i, d)
		}
		if d := geom.PolyDist(s, b); d < cfg.Distance*0.8-1e-9 {
			t.Errorf("sraf %d too close to b: %v", i, d)
		}
	}
}

func TestSmoothMovesConservesMean(t *testing.T) {
	moves := []geom.Pt{{X: 1}, {X: 2}, {X: 3}, {X: 0}, {X: -1}, {X: 2}}
	o := &Optimizer{cfg: Config{SmoothWindow: 1}, smoothW: binomialWeights(1)}
	s := &Shape{smoothed: make([]geom.Pt, len(moves))}
	out := o.smoothMoves(s, moves)
	var inSum, outSum geom.Pt
	for i := range moves {
		inSum = inSum.Add(moves[i])
		outSum = outSum.Add(out[i])
	}
	if !inSum.ApproxEq(outSum, 1e-9) {
		t.Errorf("smoothing changed total move: %v vs %v", inSum, outSum)
	}
	// W=0 is identity.
	o0 := &Optimizer{cfg: Config{SmoothWindow: 0}}
	same := o0.smoothMoves(s, moves)
	for i := range moves {
		if same[i] != moves[i] {
			t.Fatal("W=0 must be identity")
		}
	}
}

func TestBinomialWeights(t *testing.T) {
	w := binomialWeights(1)
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("weights = %v", w)
		}
	}
	w2 := binomialWeights(2)
	sum := 0.0
	for _, v := range w2 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights not normalised: %v", w2)
	}
}

func TestStepDecaySchedule(t *testing.T) {
	cfg := ViaConfig()
	if v := cfg.stepAt(0); v != cfg.MoveStep {
		t.Errorf("step(0) = %v, want %v", v, cfg.MoveStep)
	}
	if v := cfg.stepAt(16); v != cfg.MoveStep*cfg.DecayFactor {
		t.Errorf("step(16) = %v, want %v", v, cfg.MoveStep*cfg.DecayFactor)
	}
}

// TestOptimizeReducesEPE is the core integration test: running CardOPC on a
// single via must reduce the EPE of the printed pattern substantially.
func TestOptimizeReducesEPE(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	cfg := ViaConfig() // full paper schedule: 32 iterations, decay at 16
	targets := []geom.Polygon{centredSquare(120)}

	// Baseline: print the target as drawn.
	g := sim.Grid()
	drawn := raster.Rasterize(g, targets, 4)
	probes := metrics.ProbesForLayout(targets, 0)
	mcfg := metrics.DefaultEPEConfig(sim.Config().Threshold)
	before := metrics.MeasureEPE(sim.Aerial(drawn), probes, mcfg)

	res := Optimize(sim, targets, cfg)
	maskField := res.Mask.Rasterize(g, cfg.SamplesPerSeg, 4)
	after := metrics.MeasureEPE(sim.Aerial(maskField), probes, mcfg)

	if after.SumAbs >= before.SumAbs {
		t.Fatalf("OPC did not improve EPE: before %v, after %v", before.SumAbs, after.SumAbs)
	}
	if after.SumAbs > 0.5*before.SumAbs {
		t.Errorf("OPC improvement too weak: before %v, after %v", before.SumAbs, after.SumAbs)
	}
	// Convergence history decreases overall.
	h := res.History
	if len(h) != cfg.Iterations {
		t.Fatalf("history length %d", len(h))
	}
	if h[len(h)-1] >= h[0] {
		t.Errorf("history did not decrease: %v", h)
	}
}

// TestOptimizeBezierAlsoConverges checks the ablation path.
func TestOptimizeBezierAlsoConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	cfg := ViaConfig()
	cfg.Spline = spline.Bezier
	cfg.Iterations = 8
	cfg.DecayAt = nil
	targets := []geom.Polygon{centredSquare(120)}
	res := Optimize(sim, targets, cfg)
	if res.History[len(res.History)-1] >= res.History[0] {
		t.Errorf("Bezier OPC did not converge: %v", res.History)
	}
}

func TestOptimizerStepMovesBoundedByCap(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	cfg := ViaConfig()
	cfg.SRAF.Enable = false
	targets := []geom.Polygon{centredSquare(120)}
	o := NewOptimizer(sim, targets, cfg)
	before := append([]geom.Pt(nil), o.Mask().Shapes[0].Ctrl...)
	o.Step(0)
	for i, p := range o.Mask().Shapes[0].Ctrl {
		if d := p.Dist(before[i]); d > cfg.MoveCap+1e-9 {
			t.Errorf("control %d moved %v > cap %v", i, d, cfg.MoveCap)
		}
	}
}

func TestSRAFShapesStayPut(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	cfg := ViaConfig()
	targets := []geom.Polygon{centredSquare(120)}
	o := NewOptimizer(sim, targets, cfg)
	var srafCtrl [][]geom.Pt
	for _, s := range o.Mask().Shapes {
		if s.SRAF {
			srafCtrl = append(srafCtrl, append([]geom.Pt(nil), s.Ctrl...))
		}
	}
	o.Step(0)
	si := 0
	for _, s := range o.Mask().Shapes {
		if !s.SRAF {
			continue
		}
		for i := range s.Ctrl {
			if s.Ctrl[i] != srafCtrl[si][i] {
				t.Fatal("SRAF control point moved during correction")
			}
		}
		si++
	}
}

func TestAddFittedShapes(t *testing.T) {
	cfg := ViaConfig()
	m := &Mask{}
	loops := [][]geom.Pt{
		UniformControlPoints(centredSquare(100), 50),
		{geom.P(0, 0), geom.P(1, 0)}, // too short, skipped
	}
	m.AddFittedShapes(loops, cfg, true)
	if len(m.Shapes) != 1 || !m.Shapes[0].SRAF {
		t.Errorf("fitted shapes = %d", len(m.Shapes))
	}
}
