package metrics

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

// rampField builds a field whose intensity is a sigmoid in x crossing ith at
// x = edgeX, approximating a printed vertical edge.
func rampField(g raster.Grid, edgeX, ith float64) *raster.Field {
	f := raster.NewField(g)
	for y := 0; y < g.Size; y++ {
		for x := 0; x < g.Size; x++ {
			w := g.ToWorld(float64(x), float64(y))
			f.Set(x, y, ith*2/(1+math.Exp((w.X-edgeX)/5)))
		}
	}
	return f
}

func TestMeasureEPEOnShiftedEdge(t *testing.T) {
	g := raster.Grid{Size: 64, Pitch: 4}
	ith := 0.225
	// Printed edge at x=130; target edge at x=120 → printed extends 10 nm
	// outside the target: EPE = +10 along a +x outward normal.
	f := rampField(g, 130, ith)
	probes := []Probe{{Pos: geom.P(120, 128), Normal: geom.P(1, 0)}}
	res := MeasureEPE(f, probes, DefaultEPEConfig(ith))
	if len(res.PerProbe) != 1 {
		t.Fatal("probe count")
	}
	if math.Abs(res.PerProbe[0]-10) > 0.5 {
		t.Errorf("EPE = %v, want ~10", res.PerProbe[0])
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d, want 0 (|10| < 15)", res.Violations)
	}
}

func TestMeasureEPENegative(t *testing.T) {
	g := raster.Grid{Size: 64, Pitch: 4}
	ith := 0.225
	// Printed edge at x=100, target at x=120 → pullback of 20 nm: EPE=-20,
	// a violation at the 15 nm threshold.
	f := rampField(g, 100, ith)
	probes := []Probe{{Pos: geom.P(120, 128), Normal: geom.P(1, 0)}}
	res := MeasureEPE(f, probes, DefaultEPEConfig(ith))
	if math.Abs(res.PerProbe[0]+20) > 0.5 {
		t.Errorf("EPE = %v, want ~-20", res.PerProbe[0])
	}
	if res.Violations != 1 {
		t.Errorf("violations = %d, want 1", res.Violations)
	}
}

func TestMeasureEPEUnresolvedMissing(t *testing.T) {
	g := raster.Grid{Size: 64, Pitch: 4}
	f := raster.NewField(g) // nothing prints
	probes := []Probe{{Pos: geom.P(128, 128), Normal: geom.P(1, 0)}}
	cfg := DefaultEPEConfig(0.225)
	res := MeasureEPE(f, probes, cfg)
	if res.Unresolved != 1 {
		t.Fatalf("unresolved = %d", res.Unresolved)
	}
	if res.PerProbe[0] != -cfg.SearchNM {
		t.Errorf("missing-feature EPE = %v, want %v", res.PerProbe[0], -cfg.SearchNM)
	}
	if res.Violations != 1 {
		t.Errorf("violations = %d", res.Violations)
	}
}

func TestMeasureEPEUnresolvedEngulfed(t *testing.T) {
	g := raster.Grid{Size: 64, Pitch: 4}
	f := raster.NewField(g)
	for i := range f.Data {
		f.Data[i] = 1 // everything prints
	}
	probes := []Probe{{Pos: geom.P(128, 128), Normal: geom.P(1, 0)}}
	cfg := DefaultEPEConfig(0.225)
	res := MeasureEPE(f, probes, cfg)
	if res.Unresolved != 1 || res.PerProbe[0] != cfg.SearchNM {
		t.Errorf("engulfed EPE = %v (unresolved %d)", res.PerProbe[0], res.Unresolved)
	}
}

func binWith(g raster.Grid, on [][2]int) *raster.Binary {
	b := raster.NewBinary(g)
	for _, p := range on {
		b.Set(p[0], p[1], 1)
	}
	return b
}

func TestL2(t *testing.T) {
	g := raster.Grid{Size: 8, Pitch: 2}
	a := binWith(g, [][2]int{{1, 1}, {2, 2}, {3, 3}})
	b := binWith(g, [][2]int{{1, 1}, {4, 4}})
	if got := L2(a, b); got != 3 { // {2,2},{3,3},{4,4} disagree
		t.Errorf("L2 = %d, want 3", got)
	}
	if got := L2Area(a, b); got != 12 {
		t.Errorf("L2Area = %v, want 12", got)
	}
	if got := L2(a, a); got != 0 {
		t.Errorf("self L2 = %d", got)
	}
}

func TestPVB(t *testing.T) {
	g := raster.Grid{Size: 8, Pitch: 2}
	inner := binWith(g, [][2]int{{3, 3}})
	nominal := binWith(g, [][2]int{{3, 3}, {3, 4}})
	outer := binWith(g, [][2]int{{3, 3}, {3, 4}, {4, 4}})
	// Band = union {3,3},{3,4},{4,4} minus intersection {3,3} = 2 px = 8 nm².
	if got := PVB(nominal, inner, outer); got != 8 {
		t.Errorf("PVB = %v, want 8", got)
	}
	if got := PVB(nominal, nominal); got != 0 {
		t.Errorf("identical corners PVB = %v", got)
	}
	if got := PVB(); got != 0 {
		t.Errorf("no prints PVB = %v", got)
	}
}

func TestProbesFromPolygonVia(t *testing.T) {
	// A via smaller than the spacing gets one probe per edge at midpoints.
	via := geom.Rect{Min: geom.P(0, 0), Max: geom.P(40, 40)}.Poly()
	probes := ProbesFromPolygon(via, 60)
	if len(probes) != 4 {
		t.Fatalf("probes = %d, want 4", len(probes))
	}
	// Normals point outward: probe at bottom edge has normal -y.
	for _, pr := range probes {
		out := pr.Pos.Add(pr.Normal.Mul(5))
		if via.Contains(out) {
			t.Errorf("normal at %v points inward", pr.Pos)
		}
	}
}

func TestProbesFromPolygonSpacing(t *testing.T) {
	// A 300 nm edge at 60 nm spacing gets 5 probes.
	rect := geom.Rect{Min: geom.P(0, 0), Max: geom.P(300, 40)}.Poly()
	probes := ProbesFromPolygon(rect, 60)
	// Two 300 edges with 5 each + two 40 edges with 1 each = 12.
	if len(probes) != 12 {
		t.Fatalf("probes = %d, want 12", len(probes))
	}
}

func TestProbesOrientationIndependent(t *testing.T) {
	ccw := geom.Rect{Min: geom.P(0, 0), Max: geom.P(50, 50)}.Poly()
	cw := ccw.Clone()
	cw.Reverse()
	a := ProbesFromPolygon(ccw, 0)
	b := ProbesFromPolygon(cw, 0)
	if len(a) != len(b) {
		t.Fatalf("probe counts differ: %d vs %d", len(a), len(b))
	}
	// All normals outward in both cases.
	for _, pr := range b {
		if ccw.Contains(pr.Pos.Add(pr.Normal.Mul(5))) {
			t.Errorf("CW polygon probe normal points inward at %v", pr.Pos)
		}
	}
}

func TestProbesForLayout(t *testing.T) {
	polys := []geom.Polygon{
		geom.Rect{Min: geom.P(0, 0), Max: geom.P(40, 40)}.Poly(),
		geom.Rect{Min: geom.P(100, 100), Max: geom.P(140, 140)}.Poly(),
	}
	probes := ProbesForLayout(polys, 60)
	if len(probes) != 8 {
		t.Errorf("probes = %d, want 8", len(probes))
	}
}
