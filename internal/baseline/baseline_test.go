package baseline

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/ilt"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/raster"
)

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

func centredRect(w, h float64) geom.Polygon {
	c := 1024.0
	return geom.Rect{Min: geom.P(c-w/2, c-h/2), Max: geom.P(c+w/2, c+h/2)}.Poly()
}

func TestSegShapePolyReconstruction(t *testing.T) {
	// Two fragments of a horizontal bottom edge with different offsets
	// produce a jogged outline.
	s := &segShape{frags: []frag{
		{a: geom.P(0, 0), b: geom.P(50, 0), normal: geom.P(0, -1), offset: 2},
		{a: geom.P(50, 0), b: geom.P(100, 0), normal: geom.P(0, -1), offset: 0},
		{a: geom.P(100, 0), b: geom.P(100, 50), normal: geom.P(1, 0)},
		{a: geom.P(100, 50), b: geom.P(0, 50), normal: geom.P(0, 1)},
		{a: geom.P(0, 50), b: geom.P(0, 0), normal: geom.P(-1, 0)},
	}}
	p := s.poly()
	if len(p) != 10 {
		t.Fatalf("points = %d", len(p))
	}
	if p[0] != geom.P(0, -2) || p[1] != geom.P(50, -2) || p[2] != geom.P(50, 0) {
		t.Errorf("displaced outline wrong: %v", p[:3])
	}
}

func TestSmoothScalar(t *testing.T) {
	m := []float64{4, 0, 0, 0}
	smoothScalar(m, 1)
	want := []float64{2, 1, 0, 1}
	for i := range want {
		if math.Abs(m[i]-want[i]) > 1e-12 {
			t.Fatalf("smooth = %v", m)
		}
	}
	// W=0 identity.
	m2 := []float64{1, 2, 3}
	smoothScalar(m2, 0)
	if m2[0] != 1 || m2[2] != 3 {
		t.Error("W=0 must not change moves")
	}
	// Wider window conserves mass.
	m3 := []float64{8, 0, 0, 0, 0, 0}
	smoothScalar(m3, 2)
	sum := 0.0
	for _, v := range m3 {
		sum += v
	}
	if math.Abs(sum-8) > 1e-9 {
		t.Errorf("mass not conserved: %v", m3)
	}
}

func TestSegmentOPCImprovesEPE(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	targets := []geom.Polygon{centredRect(120, 120)}
	cfg := SegViaConfig()

	g := sim.Grid()
	probes := metrics.ProbesForLayout(targets, 0)
	mcfg := metrics.DefaultEPEConfig(sim.Config().Threshold)
	drawn := raster.Rasterize(g, targets, 4)
	before := metrics.MeasureEPE(sim.Aerial(drawn), probes, mcfg)

	res := SegmentOPC(sim, targets, cfg)
	mask := raster.Rasterize(g, res.MaskPolys, 4)
	after := metrics.MeasureEPE(sim.Aerial(mask), probes, mcfg)

	if after.SumAbs >= before.SumAbs {
		t.Errorf("segment OPC did not improve EPE: %v -> %v", before.SumAbs, after.SumAbs)
	}
	// Output stays rectilinear.
	for _, p := range res.MaskPolys {
		if !p.IsRectilinear(1e-6) {
			t.Error("segment OPC output must be rectilinear")
			break
		}
	}
	if len(res.History) != cfg.Iterations {
		t.Errorf("history = %d", len(res.History))
	}
}

func TestDiffOPCReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	targets := []geom.Polygon{centredRect(300, 140)}
	cfg := DefaultDiffConfig()
	cfg.Iterations = 12
	res := DiffOPC(sim, targets, cfg)
	if len(res.History) != cfg.Iterations {
		t.Fatalf("history = %d", len(res.History))
	}
	if res.History[len(res.History)-1] >= res.History[0] {
		t.Errorf("DiffOPC loss did not decrease: %v -> %v",
			res.History[0], res.History[len(res.History)-1])
	}
	if len(res.MaskPolys) != 1 {
		t.Errorf("mask polys = %d", len(res.MaskPolys))
	}
}

func TestCircleOPCProducesSmoothMask(t *testing.T) {
	if testing.Short() {
		t.Skip("litho-in-the-loop test")
	}
	sim := testSim()
	targets := []geom.Polygon{centredRect(300, 140)}
	iltCfg := ilt.DefaultConfig()
	iltCfg.Iterations = 80 // the sharp-resist solver needs a real budget
	res := CircleOPC(ilt.Run(sim, ilt.Target(sim.Grid(), targets), iltCfg), DefaultCircleConfig())
	if len(res.MaskPolys) == 0 {
		t.Fatal("no mask shapes")
	}
	// Low control budget: the main shape uses far fewer control points
	// than its boundary samples.
	main := res.Ctrl[0]
	if len(main) > 24 {
		t.Errorf("CircleOPC control budget too high: %d points", len(main))
	}
	// The fitted mask still covers roughly the target area.
	var area float64
	for _, p := range res.MaskPolys {
		area += p.Area()
	}
	// ILT masks legitimately grow bias and assist decorations, so allow a
	// generous band around the drawn area.
	want := targets[0].Area()
	if area < 0.5*want || area > 6*want {
		t.Errorf("mask area %v vs target %v", area, want)
	}
}
