package raster

import (
	"math"
	"testing"

	"cardopc/internal/geom"
)

// At returns the pixel at (x, y), zero outside the raster.
func (b *Binary) At(x, y int) int8 {
	if x < 0 || y < 0 || x >= b.Size || y >= b.Size {
		return 0
	}
	return b.Data[y*b.Size+x]
}

// Extent returns the world-space width (= height) covered by the grid, nm.
func (g Grid) Extent() float64 { return float64(g.Size) * g.Pitch }

func testGrid() Grid { return Grid{Size: 64, Pitch: 4} }

func TestGridConversions(t *testing.T) {
	g := testGrid()
	if g.Extent() != 256 {
		t.Errorf("Extent = %v", g.Extent())
	}
	// Pixel (0,0) centre is world (2,2).
	if w := g.ToWorld(0, 0); w != geom.P(2, 2) {
		t.Errorf("ToWorld(0,0) = %v", w)
	}
	x, y := g.ToPixel(geom.P(2, 2))
	if x != 0 || y != 0 {
		t.Errorf("ToPixel = %v,%v", x, y)
	}
	// Round trip.
	p := geom.P(37.5, 101.25)
	px, py := g.ToPixel(p)
	if q := g.ToWorld(px, py); !q.ApproxEq(p, 1e-9) {
		t.Errorf("round trip %v -> %v", p, q)
	}
}

func TestFieldAtSetBounds(t *testing.T) {
	f := NewField(testGrid())
	f.Set(5, 7, 3.5)
	if f.At(5, 7) != 3.5 {
		t.Error("Set/At failed")
	}
	if f.At(-1, 0) != 0 || f.At(0, 64) != 0 {
		t.Error("out-of-range At should be 0")
	}
	f.Set(-1, 0, 9) // must not panic
	f.Set(64, 64, 9)
}

func TestFillPolygonArea(t *testing.T) {
	// A 40×40 nm square occupies (40/4)^2 = 100 px of coverage.
	f := NewField(testGrid())
	sq := geom.Rect{Min: geom.P(100, 100), Max: geom.P(140, 140)}.Poly()
	f.FillPolygon(sq, 4)
	want := 100.0
	if got := f.Sum(); math.Abs(got-want) > 0.5 {
		t.Errorf("coverage sum = %v, want ~%v", got, want)
	}
}

func TestFillPolygonSubpixelAlignment(t *testing.T) {
	// A square offset by half a pixel still integrates to the right area.
	f := NewField(testGrid())
	sq := geom.Rect{Min: geom.P(102, 102), Max: geom.P(142, 142)}.Poly()
	f.FillPolygon(sq, 4)
	if got := f.Sum(); math.Abs(got-100) > 0.5 {
		t.Errorf("offset coverage sum = %v, want ~100", got)
	}
	// Interior pixels full, far pixels empty.
	if v := f.At(28, 28); math.Abs(v-1) > 1e-9 {
		t.Errorf("interior pixel = %v", v)
	}
	if v := f.At(10, 10); v != 0 {
		t.Errorf("exterior pixel = %v", v)
	}
}

func TestFillPolygonTriangle(t *testing.T) {
	f := NewField(testGrid())
	tri := geom.Polygon{geom.P(20, 20), geom.P(120, 20), geom.P(20, 120)}
	f.FillPolygon(tri, 8)
	want := tri.Area() / (4 * 4)
	if got := f.Sum(); math.Abs(got-want)/want > 0.01 {
		t.Errorf("triangle coverage = %v, want ~%v", got, want)
	}
}

func TestFillPolygonClipsToRaster(t *testing.T) {
	f := NewField(testGrid())
	// Square hanging off every edge.
	big := geom.Rect{Min: geom.P(-100, -100), Max: geom.P(400, 400)}.Poly()
	f.FillPolygon(big, 2)
	f.Clamp01()
	if got := f.Sum(); math.Abs(got-64*64) > 1 {
		t.Errorf("clipped fill = %v, want full raster %v", got, 64*64)
	}
}

func TestFillDegeneratePolygon(t *testing.T) {
	f := NewField(testGrid())
	f.FillPolygon(geom.Polygon{geom.P(1, 1), geom.P(2, 2)}, 4)
	if f.Sum() != 0 {
		t.Error("degenerate polygon should not fill")
	}
}

func TestRasterizeMultiple(t *testing.T) {
	g := testGrid()
	a := geom.Rect{Min: geom.P(20, 20), Max: geom.P(60, 60)}.Poly()
	b := geom.Rect{Min: geom.P(40, 40), Max: geom.P(80, 80)}.Poly() // overlaps a
	f := Rasterize(g, []geom.Polygon{a, b}, 4)
	for _, v := range f.Data {
		if v < 0 || v > 1 {
			t.Fatalf("clamp failed: %v", v)
		}
	}
	// Union area = 2*1600 - 400 = 2800 nm² = 175 px.
	if got := f.Sum(); math.Abs(got-175) > 1 {
		t.Errorf("union coverage = %v, want ~175", got)
	}
}

func TestBilinear(t *testing.T) {
	f := NewField(Grid{Size: 4, Pitch: 1})
	f.Set(1, 1, 1)
	f.Set(2, 1, 3)
	// At the midpoint between pixel centres (1,1)=(1.5,1.5) and (2,1)=(2.5,1.5).
	got := f.Bilinear(geom.P(2.0, 1.5))
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Bilinear = %v, want 2", got)
	}
	// Exactly at a pixel centre.
	if got := f.Bilinear(geom.P(1.5, 1.5)); math.Abs(got-1) > 1e-12 {
		t.Errorf("Bilinear at centre = %v, want 1", got)
	}
	// Far outside: zero padding.
	if got := f.Bilinear(geom.P(-50, -50)); got != 0 {
		t.Errorf("Bilinear outside = %v", got)
	}
}

func TestThresholdAndCount(t *testing.T) {
	f := NewField(Grid{Size: 4, Pitch: 1})
	f.Set(0, 0, 0.9)
	f.Set(1, 1, 0.4)
	b := f.Threshold(0.5)
	if b.At(0, 0) != 1 || b.At(1, 1) != 0 {
		t.Error("threshold wrong")
	}
	if b.Count() != 1 {
		t.Errorf("Count = %d", b.Count())
	}
}

func TestClamp01(t *testing.T) {
	f := NewField(Grid{Size: 2, Pitch: 1})
	f.Data[0] = -1
	f.Data[1] = 0.5
	f.Data[2] = 2
	f.Clamp01()
	if f.Data[0] != 0 || f.Data[1] != 0.5 || f.Data[2] != 1 {
		t.Errorf("Clamp01 = %v", f.Data[:3])
	}
}
