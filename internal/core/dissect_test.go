package core

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/spline"
)

func TestDissectEdgeShort(t *testing.T) {
	e := geom.Seg{A: geom.P(0, 0), B: geom.P(30, 0)}
	segs := DissectEdge(e, 20, 30)
	if len(segs) != 1 || !segs[0].Corner {
		t.Fatalf("short edge: %v", segs)
	}
	if segs[0].Seg != e {
		t.Errorf("short edge fragment = %v", segs[0].Seg)
	}
}

func TestDissectEdgeZero(t *testing.T) {
	if segs := DissectEdge(geom.Seg{A: geom.P(1, 1), B: geom.P(1, 1)}, 20, 30); segs != nil {
		t.Errorf("zero edge: %v", segs)
	}
}

func TestDissectEdgeLong(t *testing.T) {
	// 160 nm edge with lc=20, lu=30: [20][30×4][20].
	e := geom.Seg{A: geom.P(0, 0), B: geom.P(160, 0)}
	segs := DissectEdge(e, 20, 30)
	if len(segs) != 6 {
		t.Fatalf("fragments = %d, want 6", len(segs))
	}
	if !segs[0].Corner || !segs[5].Corner {
		t.Error("end fragments must be corner fragments")
	}
	for i := 1; i < 5; i++ {
		if segs[i].Corner {
			t.Errorf("middle fragment %d flagged corner", i)
		}
	}
	// Fragments tile the edge exactly.
	if segs[0].Seg.A != e.A || segs[5].Seg.B != e.B {
		t.Error("fragments do not span the edge")
	}
	for i := 0; i+1 < len(segs); i++ {
		if !segs[i].Seg.B.ApproxEq(segs[i+1].Seg.A, 1e-9) {
			t.Errorf("gap between fragments %d and %d", i, i+1)
		}
	}
	// Corner fragments are lc long; middles are (160-40)/4 = 30.
	if math.Abs(segs[0].Seg.Len()-20) > 1e-9 {
		t.Errorf("corner fragment length = %v", segs[0].Seg.Len())
	}
	if math.Abs(segs[2].Seg.Len()-30) > 1e-9 {
		t.Errorf("uniform fragment length = %v", segs[2].Seg.Len())
	}
}

func TestDissectPolygonCount(t *testing.T) {
	// 70 nm square with lc=20, lu=30: each edge -> [20][30][20] = 3 frags.
	sq := geom.Rect{Min: geom.P(0, 0), Max: geom.P(70, 70)}.Poly()
	n := 0
	for i := range sq {
		n += len(DissectEdge(sq.Edge(i), 20, 30))
	}
	if n != 12 {
		t.Fatalf("fragments = %d, want 12", n)
	}
}

// ctrlPositions returns the positions of BuildControlPoints' output.
func ctrlPositions(poly geom.Polygon, cfg Config) []geom.Pt {
	var pts []geom.Pt
	for _, cp := range BuildControlPoints(poly, cfg) {
		pts = append(pts, cp.Pos)
	}
	return pts
}

func TestControlPointsVia(t *testing.T) {
	cfg := ViaConfig()
	sq := geom.Rect{Min: geom.P(0, 0), Max: geom.P(70, 70)}.Poly()
	ctrl := ctrlPositions(sq, cfg)
	// 12 fragment midpoints + 4 corner control points.
	if len(ctrl) != 16 {
		t.Fatalf("control points = %d, want 16", len(ctrl))
	}
	// The loop through the control points stays near the square: every
	// control point within 60 nm of the boundary and the loop area close to
	// the square's.
	loop := spline.NewCurve(ctrl, cfg.Tension)
	area := loop.Sample(8).Area()
	if math.Abs(area-4900)/4900 > 0.15 {
		t.Errorf("initial loop area = %v, want ~4900", area)
	}
}

func TestControlPointsOrientationNormalised(t *testing.T) {
	cfg := ViaConfig()
	sq := geom.Rect{Min: geom.P(0, 0), Max: geom.P(70, 70)}.Poly()
	cw := sq.Clone()
	cw.Reverse()
	a := ctrlPositions(sq, cfg)
	b := ctrlPositions(cw, cfg)
	if len(a) != len(b) {
		t.Fatalf("orientation changes control count: %d vs %d", len(a), len(b))
	}
	// Both loops CCW.
	pa := spline.NewCurve(a, cfg.Tension).Sample(4)
	pb := spline.NewCurve(b, cfg.Tension).Sample(4)
	if pa.SignedArea() <= 0 || pb.SignedArea() <= 0 {
		t.Error("control loops must be CCW")
	}
}

func TestControlPointsEmpty(t *testing.T) {
	if got := BuildControlPoints(geom.Polygon{}, ViaConfig()); got != nil {
		t.Errorf("empty polygon: %v", got)
	}
}

func TestUniformControlPoints(t *testing.T) {
	sq := geom.Rect{Min: geom.P(0, 0), Max: geom.P(100, 100)}.Poly()
	ctrl := UniformControlPoints(sq, 50)
	if len(ctrl) != 8 {
		t.Fatalf("uniform points = %d, want 8", len(ctrl))
	}
	// Tiny shape still gets at least 4.
	tiny := geom.Rect{Min: geom.P(0, 0), Max: geom.P(10, 10)}.Poly()
	if got := UniformControlPoints(tiny, 50); len(got) != 4 {
		t.Errorf("tiny shape points = %d, want 4", len(got))
	}
}
