package raster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cardopc/internal/geom"
)

// scanFill is the all-edges scanline fill FillPolygon replaced, kept as
// its oracle: every sub-scanline of every row in the polygon's bounds
// tests every edge, in vertex order. It clamps the row range and drops
// NaN crossings as the fill does.
func (f *Field) scanFill(poly geom.Polygon, ss int) {
	if len(poly) < 3 {
		return
	}
	if ss < 1 {
		ss = 1
	}
	b := poly.Bounds()
	y0, y1, ok := rowRange(b.Min.Y, b.Max.Y, f.Pitch, f.Size)
	if !ok {
		return
	}
	n := len(poly)
	var xs []float64
	weight := 1.0 / float64(ss)
	for py := y0; py < y1; py++ {
		for sub := 0; sub < ss; sub++ {
			wy := (float64(py) + (float64(sub)+0.5)/float64(ss)) * f.Pitch
			xs = xs[:0]
			for i := 0; i < n; i++ {
				a, c := poly[i], poly[(i+1)%n]
				if (a.Y > wy) == (c.Y > wy) {
					continue
				}
				x := a.X + (wy-a.Y)/(c.Y-a.Y)*(c.X-a.X)
				if math.IsNaN(x) {
					continue
				}
				xs = append(xs, x)
			}
			if len(xs) < 2 {
				continue
			}
			sort.Float64s(xs)
			for k := 0; k+1 < len(xs); k += 2 {
				f.addSpan(xs[k], xs[k+1], py, weight)
			}
		}
	}
}

// sameBits reports the first pixel where got and want differ in any bit.
func sameBits(t *testing.T, what string, got, want *Field) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: pixel (%d, %d) = %v (%#x), oracle %v (%#x)", what, i%want.Size, i/want.Size,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// subCentre is the world y of sub-scanline sub of row py, as the fill
// computes it.
func subCentre(g Grid, py, sub, ss int) float64 {
	return (float64(py) + (float64(sub)+0.5)/float64(ss)) * g.Pitch
}

// fillCases are the polygon sets the oracle table fills at each ss; the
// grid is 64 px, so the raster spans [0, 64·pitch) nm on each axis.
func fillCases(g Grid, ss int) map[string][]geom.Polygon {
	e := float64(g.Size) * g.Pitch
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.Rect{Min: geom.P(x0, y0), Max: geom.P(x1, y1)}.Poly()
	}
	circle := func(cx, cy, r float64, n int) geom.Polygon {
		p := make(geom.Polygon, n)
		for i := range p {
			a := 2 * math.Pi * float64(i) / float64(n)
			p[i] = geom.P(cx+r*math.Cos(a), cy+r*math.Sin(a))
		}
		return p
	}
	yc := func(py, sub int) float64 { return subCentre(g, py, sub, ss) }
	r := rand.New(rand.NewSource(int64(ss)))
	random := make([]geom.Polygon, 6)
	for i := range random {
		p := make(geom.Polygon, 3+r.Intn(12))
		for j := range p {
			p[j] = geom.P(-0.2*e+1.4*e*r.Float64(), -0.2*e+1.4*e*r.Float64())
		}
		random[i] = p
	}
	return map[string][]geom.Polygon{
		"rectangle":   {rect(0.2*e, 0.3*e, 0.7*e, 0.55*e)},
		"triangle":    {{geom.P(0.1*e, 0.1*e), geom.P(0.9*e, 0.2*e), geom.P(0.3*e, 0.8*e)}},
		"clockwise":   {{geom.P(0.1*e, 0.1*e), geom.P(0.3*e, 0.8*e), geom.P(0.9*e, 0.2*e)}},
		"bowtie":      {{geom.P(0.1*e, 0.1*e), geom.P(0.8*e, 0.7*e), geom.P(0.8*e, 0.1*e), geom.P(0.1*e, 0.7*e)}},
		"pentagram":   {{geom.P(0.5*e, 0.9*e), geom.P(0.25*e, 0.1*e), geom.P(0.9*e, 0.6*e), geom.P(0.1*e, 0.6*e), geom.P(0.75*e, 0.1*e)}},
		"staircase":   {{geom.P(0.1*e, 0.1*e), geom.P(0.6*e, 0.1*e), geom.P(0.6*e, 0.3*e), geom.P(0.4*e, 0.3*e), geom.P(0.4*e, 0.5*e), geom.P(0.2*e, 0.5*e), geom.P(0.2*e, 0.7*e), geom.P(0.1*e, 0.7*e)}},
		"coincident":  {{geom.P(0.2*e, 0.2*e), geom.P(0.2*e, 0.2*e), geom.P(0.6*e, 0.2*e), geom.P(0.6*e, 0.6*e), geom.P(0.6*e, 0.6*e), geom.P(0.6*e, 0.6*e), geom.P(0.2*e, 0.6*e)}},
		"all one pt":  {{geom.P(0.3*e, 0.3*e), geom.P(0.3*e, 0.3*e), geom.P(0.3*e, 0.3*e)}},
		"collinear":   {{geom.P(0.1*e, 0.1*e), geom.P(0.5*e, 0.5*e), geom.P(0.9*e, 0.9*e)}},
		"spike":       {{geom.P(0.2*e, 0.2*e), geom.P(0.5*e, 0.2*e), geom.P(0.5*e, 0.9*e), geom.P(0.5*e, 0.2*e), geom.P(0.7*e, 0.2*e), geom.P(0.45*e, 0.5*e)}},
		"on centres":  {{geom.P(0.5*e, yc(5, 0)), geom.P(0.8*e, yc(20, ss-1)), geom.P(0.5*e, yc(40, ss/2)), geom.P(0.2*e, yc(20, 0))}},
		"flat centre": {rect(0.3*e, yc(10, 0), 0.6*e, yc(30, ss-1)), rect(0.1*e, yc(31, ss/2), 0.9*e, yc(33, ss/2))},
		"negative 0":  {{geom.P(math.Copysign(0, -1), 0.2*e), geom.P(0.5*e, 0.2*e), geom.P(0.5*e, 0.6*e), geom.P(math.Copysign(0, -1), 0.6*e), geom.P(math.Copysign(0, -1), 0.4*e), geom.P(-0.3*e, 0.4*e)}},
		"left edge":   {rect(-0.3*e, 0.2*e, 0.25*e, 0.4*e)},
		"corner off":  {rect(-0.2*e, -0.2*e, 0.3*e, 0.3*e), rect(0.8*e, 0.8*e, 1.3*e, 1.3*e)},
		"cover all":   {rect(-e, -e, 2*e, 2*e)},
		"wholly off":  {rect(-0.5*e, -0.5*e, -0.1*e, 1.5*e), rect(1.1*e, 0.2*e, 1.5*e, 0.4*e), rect(0.2*e, 1.1*e, 0.4*e, 1.5*e), rect(0.2*e, -0.5*e, 0.4*e, -0.01*e)},
		"circle":      {circle(0.5*e, 0.5*e, 0.3*e, 200)},
		"overlaps":    {circle(0.4*e, 0.4*e, 0.25*e, 37), circle(0.6*e, 0.55*e, 0.2*e, 23), rect(0.3*e, 0.1*e, 0.5*e, 0.9*e)},
		"random":      random,
	}
}

// TestFillMatchesScan: FillPolygon and a reused Painter write every
// pixel with the same bits as the all-edges scan, on every case and at
// ss 1–8; the Painter's Clear leaves nothing of the case before.
func TestFillMatchesScan(t *testing.T) {
	for _, g := range []Grid{{Size: 64, Pitch: 4}, {Size: 64, Pitch: 3.7}} {
		reused := NewField(g)
		p := NewPainter(reused)
		for ss := 1; ss <= 8; ss++ {
			for name, polys := range fillCases(g, ss) {
				want, got := NewField(g), NewField(g)
				p.Clear()
				for _, poly := range polys {
					want.scanFill(poly, ss)
					got.FillPolygon(poly, ss)
					p.Fill(poly, ss)
				}
				what := fmt.Sprintf("%s, pitch %g, ss %d", name, g.Pitch, ss)
				sameBits(t, what+" FillPolygon", got, want)
				sameBits(t, what+" Painter.Fill", reused, want)
				want.Clamp01()
				p.Clamp01()
				sameBits(t, what+" Painter.Clamp01", reused, want)
			}
		}
	}
}

// TestFillOverflows: coordinates whose pixel rows lie beyond the int
// range, or whose edge crossings overflow to a NaN, still fill the
// raster and match the oracle bit for bit, on 16 px @ 4 nm at ss 1.
func TestFillOverflows(t *testing.T) {
	g := Grid{Size: 16, Pitch: 4}
	rect := func(x0, y0, x1, y1 float64) geom.Polygon {
		return geom.Rect{Min: geom.P(x0, y0), Max: geom.P(x1, y1)}.Poly()
	}
	for _, c := range []struct {
		name string
		poly geom.Polygon
		// same, when non-nil, fills the same pixels inside the raster.
		same geom.Polygon
	}{
		// The edge from (−1e308, 2) to (1e308, 40) spans +Inf in x and
		// starts on row 0's sub-scanline centre, where its crossing is
		// 0·Inf = NaN.
		{"x overflow", geom.Polygon{geom.P(-1e308, 2), geom.P(1e308, 40), geom.P(20, 40), geom.P(20, 2)}, nil},
		// Its top row, 2.5e19, is beyond the int range.
		{"y beyond int", rect(8, 8, 40, 1e20), rect(8, 8, 40, 100)},
	} {
		want, got := NewField(g), NewField(g)
		want.scanFill(c.poly, 1)
		got.FillPolygon(c.poly, 1)
		sameBits(t, c.name+" FillPolygon", got, want)
		for i, v := range got.Data {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%s: pixel %d coverage %v outside [0, 1]", c.name, i, v)
			}
		}
		if c.same != nil {
			clipped := NewField(g)
			clipped.FillPolygon(c.same, 1)
			sameBits(t, c.name+" against the clipped polygon", got, clipped)
			if clipped.Sum() == 0 {
				t.Fatalf("%s: the clipped polygon fills nothing", c.name)
			}
		}
	}
}

// TestFillPolygonStackScratch: a polygon of up to 16 edges fills without
// allocating, and a warm Painter allocates nothing whatever the polygon.
func TestFillPolygonStackScratch(t *testing.T) {
	f := NewField(Grid{Size: 64, Pitch: 4})
	sq := geom.Rect{Min: geom.P(40, 40), Max: geom.P(200, 120)}.Poly()
	if n := testing.AllocsPerRun(20, func() { f.FillPolygon(sq, 4) }); n != 0 {
		t.Errorf("FillPolygon of a square allocates %v times", n)
	}
	p := NewPainter(f)
	star := randStar(rand.New(rand.NewSource(5)), f.Grid)
	p.Fill(star, 4)
	if n := testing.AllocsPerRun(20, func() { p.Clear(); p.Fill(star, 4); p.Clamp01() }); n != 0 {
		t.Errorf("a warm Painter allocates %v times per paint", n)
	}
}

// fuzzGrids are the rasters FuzzFillMatchesScan fills, picked by a byte.
var fuzzGrids = []Grid{{Size: 32, Pitch: 4}, {Size: 17, Pitch: 3.7}, {Size: 8, Pitch: 0.5}, {Size: 1, Pitch: 16}}

// FuzzFillMatchesScan fills a polygon decoded from data (16 bytes a
// vertex: x then y as little-endian float64 bits) through FillPolygon and
// through the all-edges scan, and requires every pixel to match bit for
// bit. Coordinates must be finite and within ±1e300, where no difference
// of two of them overflows into an infinite or NaN crossing.
func FuzzFillMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, ss, grid uint8, data []byte) {
		poly := make(geom.Polygon, 0, len(data)/16)
		for i := 0; i+16 <= len(data); i += 16 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(data[i+8:]))
			if !(math.Abs(x) <= 1e300 && math.Abs(y) <= 1e300) {
				t.Skip("coordinate not finite or beyond ±1e300")
			}
			poly = append(poly, geom.P(x, y))
		}
		g := fuzzGrids[int(grid)%len(fuzzGrids)]
		n := 1 + int(ss)%8
		want, got := NewField(g), NewField(g)
		want.scanFill(poly, n)
		got.FillPolygon(poly, n)
		sameBits(t, "FillPolygon", got, want)
	})
}
