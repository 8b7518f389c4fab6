package core

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

func TestBuildControlPointsViaProbes(t *testing.T) {
	// Via config probes: every fragment of an edge probes at the edge
	// centre (ProbeSpacing = 0).
	cfg := ViaConfig()
	sq := geom.Rect{Min: geom.P(100, 100), Max: geom.P(170, 170)}.Poly()
	cps := BuildControlPoints(sq, cfg)
	if len(cps) != 16 {
		t.Fatalf("control points = %d, want 16 (12 frags + 4 corners)", len(cps))
	}
	corners := 0
	for _, cp := range cps {
		if cp.Corner {
			corners++
			continue
		}
		// Fragment probes sit at an edge centre: one coordinate is 135.
		atCentre := math.Abs(cp.Probe.Pos.X-135) < 1e-9 || math.Abs(cp.Probe.Pos.Y-135) < 1e-9
		if !atCentre {
			t.Errorf("fragment probe at %v is not an edge centre", cp.Probe.Pos)
		}
		// Probe normals are unit and axis-aligned for a rectilinear target.
		n := cp.Probe.Normal
		if math.Abs(n.Norm()-1) > 1e-9 {
			t.Errorf("probe normal not unit: %v", n)
		}
		if n.X != 0 && n.Y != 0 {
			t.Errorf("probe normal not axis-aligned: %v", n)
		}
		// Outward: stepping along the normal leaves the polygon.
		if sq.Contains(cp.Probe.Pos.Add(n.Mul(5))) {
			t.Errorf("probe normal at %v points inward", cp.Probe.Pos)
		}
	}
	if corners != 4 {
		t.Errorf("corner points = %d, want 4", corners)
	}
}

func TestBuildControlPointsMetalProbes(t *testing.T) {
	// Metal config: probes every 60 nm along long edges; each fragment
	// probes the nearest measure point.
	cfg := MetalConfig()
	wire := geom.Rect{Min: geom.P(0, 0), Max: geom.P(300, 80)}.Poly()
	cps := BuildControlPoints(wire, cfg)
	for _, cp := range cps {
		if cp.Corner {
			continue
		}
		// Probe must lie on the target boundary.
		onBoundary := false
		for i := range wire {
			if wire.Edge(i).Dist(cp.Probe.Pos) < 1e-6 {
				onBoundary = true
				break
			}
		}
		if !onBoundary {
			t.Errorf("probe %v off the target boundary", cp.Probe.Pos)
		}
		// Fragment centre and its probe belong to the same edge: they are
		// within the measure spacing of one another.
		if cp.Pos.Dist(cp.Probe.Pos) > cfg.ProbeSpacing {
			t.Errorf("fragment at %v probes far point %v", cp.Pos, cp.Probe.Pos)
		}
	}
}

func TestEdgeMeasurePoints(t *testing.T) {
	e := geom.Seg{A: geom.P(0, 0), B: geom.P(300, 0)}
	// Spacing 0: one centre point.
	pts := EdgeMeasurePoints(e, 0)
	if len(pts) != 1 || pts[0] != geom.P(150, 0) {
		t.Errorf("centre measure = %v", pts)
	}
	// 60 nm spacing: 5 points at 30, 90, 150, 210, 270.
	pts = EdgeMeasurePoints(e, 60)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	for k, want := range []float64{30, 90, 150, 210, 270} {
		if math.Abs(pts[k].X-want) > 1e-9 {
			t.Errorf("point %d = %v, want x=%v", k, pts[k], want)
		}
	}
	// Short edge falls back to the centre.
	short := geom.Seg{A: geom.P(0, 0), B: geom.P(40, 0)}
	if pts := EdgeMeasurePoints(short, 60); len(pts) != 1 {
		t.Errorf("short edge points = %d", len(pts))
	}
}

func TestNearestPt(t *testing.T) {
	pts := []geom.Pt{geom.P(0, 0), geom.P(10, 0), geom.P(20, 0)}
	if got := NearestPt(pts, geom.P(12, 3)); got != geom.P(10, 0) {
		t.Errorf("NearestPt = %v", got)
	}
	if got := NearestPt(pts[:1], geom.P(100, 100)); got != geom.P(0, 0) {
		t.Errorf("single-point NearestPt = %v", got)
	}
}

func TestCornerFollowersDontSelfMove(t *testing.T) {
	// A corner-tagged control point must be excluded from direct EPE
	// moves; verify the tags round-trip through NewMask.
	cfg := ViaConfig()
	cfg.SRAF.Enable = false
	m := NewMask([]geom.Polygon{geom.Rect{Min: geom.P(0, 0), Max: geom.P(70, 70)}.Poly()}, cfg)
	if len(m.Shapes) != 1 {
		t.Fatal("want one shape")
	}
	s := m.Shapes[0]
	if len(s.Corner) != len(s.Ctrl) {
		t.Fatalf("corner tags %d vs ctrl %d", len(s.Corner), len(s.Ctrl))
	}
	n := 0
	for _, c := range s.Corner {
		if c {
			n++
		}
	}
	if n != 4 {
		t.Errorf("corner tags = %d, want 4", n)
	}
}

func TestHoleShapesSubtract(t *testing.T) {
	cfg := ViaConfig()
	m := &Mask{}
	outer := UniformControlPoints(geom.Rect{Min: geom.P(100, 100), Max: geom.P(400, 400)}.Poly(), 50)
	hole := UniformControlPoints(geom.Rect{Min: geom.P(200, 200), Max: geom.P(300, 300)}.Poly(), 50)
	m.AddFittedShapes([][]geom.Pt{outer}, cfg, false)
	m.AddHoleShapes([][]geom.Pt{hole}, cfg)
	if len(m.Shapes) != 2 || !m.Shapes[1].Hole {
		t.Fatal("hole shape missing")
	}

	g := raster.Grid{Size: 128, Pitch: 4}
	f := m.Rasterize(g, 8, 4)
	// The hole region is empty; the rim region is solid.
	if v := f.Bilinear(geom.P(250, 250)); v > 0.05 {
		t.Errorf("hole centre coverage = %v", v)
	}
	if v := f.Bilinear(geom.P(150, 250)); v < 0.95 {
		t.Errorf("rim coverage = %v", v)
	}
}

func TestRasterizeIntoHoleScratch(t *testing.T) {
	// Step renders hole loops into a kept scratch raster. The result
	// must equal Rasterize's, and a scratch left over from a mask with a
	// hole must not leak into a later mask without one.
	cfg := ViaConfig()
	outer := UniformControlPoints(geom.Rect{Min: geom.P(100, 100), Max: geom.P(400, 400)}.Poly(), 50)
	hole := UniformControlPoints(geom.Rect{Min: geom.P(200, 200), Max: geom.P(300, 300)}.Poly(), 50)
	solid := &Mask{}
	solid.AddFittedShapes([][]geom.Pt{outer}, cfg, false)
	holed := &Mask{}
	holed.AddFittedShapes([][]geom.Pt{outer}, cfg, false)
	holed.AddHoleShapes([][]geom.Pt{hole}, cfg)

	g := raster.Grid{Size: 128, Pitch: 4}
	f := raster.NewField(g)
	paint, holes := raster.NewPainter(f), raster.NewPainter(raster.NewField(g))
	for _, m := range []*Mask{holed, solid, holed} {
		m.rasterizeInto(paint, holes, 8, 4)
		want := m.Rasterize(g, 8, 4)
		for i := range want.Data {
			if f.Data[i] != want.Data[i] {
				t.Fatalf("pixel %d = %v with hole scratch, %v without (holes %v)", i, f.Data[i], want.Data[i], m.hasHoles())
			}
		}
	}
}
