package cardopc

import (
	"bytes"
	"testing"
)

func TestFacadeGDSRoundTrip(t *testing.T) {
	polys := []Polygon{Rect{Min: P(0, 0), Max: P(100, 50)}.Poly()}
	lib := NewGDSLibrary("T", polys)
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGDS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Polys) != 1 || got.Name != "T" {
		t.Errorf("round trip: %q, %d polys", got.Name, len(got.Polys))
	}
}

func TestFacadeFracture(t *testing.T) {
	polys := []Polygon{Rect{Min: P(0, 0), Max: P(100, 50)}.Poly()}
	traps, stats := FractureMask(polys, DefaultFractureOptions())
	if len(traps) != 1 || stats.Shots != 1 || stats.Rects != 1 {
		t.Errorf("fracture: %d traps, stats %+v", len(traps), stats)
	}
}

func TestFacadeORC(t *testing.T) {
	if testing.Short() {
		t.Skip("imaging test")
	}
	proc := NewProcess(testLitho())
	target := Rect{Min: P(880, 880), Max: P(1180, 1180)}.Poly()
	// The drawn mask prints the feature: no missing defect expected for a
	// 300 nm square.
	defects := VerifyORC(proc, []Polygon{target}, []Polygon{target}, DefaultORCConfig())
	for _, d := range defects {
		if d.Kind.String() == "missing" {
			t.Errorf("large feature reported missing: %v", d)
		}
	}
}

func TestFacadeTiledOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tile test")
	}
	lcfg := testLitho() // 128 px @ 16 nm = 2048 nm field
	opc := MetalConfig()
	opc.Iterations = 2
	opc.DecayAt = nil
	cfg := TiledConfig{TileNM: 1024, HaloNM: 300, OPC: opc, Litho: lcfg}
	targets := []Polygon{
		Rect{Min: P(100, 300), Max: P(700, 390)}.Poly(),
		Rect{Min: P(1300, 300), Max: P(1900, 390)}.Poly(),
	}
	res, err := TiledOptimize(targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shapes != 2 {
		t.Errorf("shapes = %d", res.Shapes)
	}
}

func TestFacadePWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("imaging test")
	}
	lcfg := testLitho()
	sim := NewSimulator(lcfg)
	target := Rect{Min: P(944, 500), Max: P(1104, 1548)}.Poly()
	mask := Rasterize(sim.Grid(), []Polygon{target}, 4)
	cut := PWCut{Center: P(1024, 1024), Dir: P(1, 0)}
	cfg := DefaultPWConfig()
	cfg.Doses = []float64{1.0}
	cfg.DefociNM = []float64{0}
	w := AnalyzeProcessWindow(lcfg, mask, cut, 160, cfg)
	if len(w.Points) != 1 {
		t.Fatalf("points = %d", len(w.Points))
	}
	if w.Points[0].CDNM <= 0 {
		t.Errorf("CD = %v", w.Points[0].CDNM)
	}
}
