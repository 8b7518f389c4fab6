// Package raster converts between the vector world (polygons, spline
// samples) and the pixel world the lithography simulator operates in. It
// provides a scanline polygon fill with supersampled coverage that visits
// only the edges live on each sub-scanline (an active-edge list), painted
// through a Painter that clears and clamps only the row spans its fills
// wrote; bilinear field sampling, Suzuki–Abe border following (the contour
// tracer the paper's ILT fitting step cites) and marching-squares
// iso-contours.
package raster

import (
	"math"
	"slices"
	"sort"

	"cardopc/internal/geom"
	"cardopc/internal/obs"
)

// Grid describes the pixel raster: Size×Size pixels of Pitch nanometres,
// with pixel (0,0)'s centre at world coordinate (Pitch/2, Pitch/2). World
// coordinates are nanometres with the origin at the raster's lower-left
// corner.
type Grid struct {
	Size  int     // pixels per side
	Pitch float64 // nm per pixel
}

// ToPixel converts a world point to (fractional) pixel coordinates.
func (g Grid) ToPixel(p geom.Pt) (x, y float64) {
	return p.X/g.Pitch - 0.5, p.Y/g.Pitch - 0.5
}

// ToWorld converts pixel indices to the world coordinate of the pixel
// centre.
func (g Grid) ToWorld(x, y float64) geom.Pt {
	return geom.Pt{X: (x + 0.5) * g.Pitch, Y: (y + 0.5) * g.Pitch}
}

// Field is a scalar image over a Grid, row-major, Data[y*Size+x].
type Field struct {
	Grid
	Data []float64
}

// NewField allocates a zeroed field over g.
func NewField(g Grid) *Field {
	return &Field{Grid: g, Data: make([]float64, g.Size*g.Size)}
}

// At returns the pixel value at integer coordinates, with zero padding
// outside the raster.
func (f *Field) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= f.Size || y >= f.Size {
		return 0
	}
	return f.Data[y*f.Size+x]
}

// Set stores v at (x, y); out-of-range writes are ignored.
func (f *Field) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= f.Size || y >= f.Size {
		return
	}
	f.Data[y*f.Size+x] = v
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	out := NewField(f.Grid)
	copy(out.Data, f.Data)
	return out
}

// Bilinear samples the field at world point p with bilinear interpolation
// and zero padding outside.
func (f *Field) Bilinear(p geom.Pt) float64 {
	fx, fy := f.ToPixel(p)
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	v00 := f.At(x0, y0)
	v10 := f.At(x0+1, y0)
	v01 := f.At(x0, y0+1)
	v11 := f.At(x0+1, y0+1)
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

// Threshold returns a binary image: 1 where Data >= th, else 0.
func (f *Field) Threshold(th float64) *Binary {
	b := NewBinary(f.Grid)
	for i, v := range f.Data {
		if v >= th {
			b.Data[i] = 1
		}
	}
	return b
}

// Sum returns the sum of all pixel values.
func (f *Field) Sum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// FillPolygon rasterises polygon poly into f by adding per-pixel coverage in
// [0,1], computed with ss×ss supersampling along y (ss sub-scanlines per
// pixel row with exact horizontal spans). Each sub-scanline visits only the
// edges live on it, so the cost follows the polygon's vertices and covered
// area, not the raster. Overlapping fills accumulate and are clamped by
// Clamp01 if the caller wants hard masks; a Painter fills the same way and
// clamps only what its fills touched.
func (f *Field) FillPolygon(poly geom.Polygon, ss int) {
	// Stack scratch: a polygon of up to 16 edges fills without allocating.
	var edges, active [16]edge
	var order [16]uint64
	var xs [16]float64
	f.fill(scan{edges: edges[:0], order: order[:0], active: active[:0], xs: xs[:0]}, poly, ss, nil)
}

// edge is one non-horizontal polygon edge a→c, kept in the polygon's own
// orientation (the crossing formula is not symmetric in its ends), with
// the last pixel row whose sub-scanlines it may cross.
type edge struct {
	a, c geom.Pt
	r1   int32
}

// scan is a fill's reusable scratch: the polygon's edges, their order by
// the first row whose sub-scanlines each may cross (that row << 32 |
// index), the edges live on the current row, and one sub-scanline's
// crossings.
type scan struct {
	edges, active []edge
	order         []uint64
	xs            []float64
}

// fill is FillPolygon on the scratch s, which it takes and returns by
// value so that FillPolygon's stack arrays do not escape. When rows is
// non-nil it widens rows[py] to every column the fill writes in row py.
//
// Every sub-scanline meets the same crossings the all-edges scan meets:
// an edge is live from one row below the row of its lower end to one row
// above the row of its upper end, a margin no rounding of the
// sub-scanline height can cross, and the crossing test and the x formula
// are the all-edges scan's own. The crossings reach the sort in another
// order, which for finite crossings can only swap a +0 and a −0 crossing
// (the only unequal values it ranks level), and addSpan writes
// the same values for either; so every pixel receives the same adds in
// the same order, bit for bit.
func (f *Field) fill(s scan, poly geom.Polygon, ss int, rows []span) scan {
	if len(poly) < 3 {
		return s
	}
	if ss < 1 {
		ss = 1
	}
	// The polygon's y-extent, as Bounds computes it (builtin min and max
	// treat NaN and ±0 as math.Min and math.Max do).
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range poly {
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	y0, y1, ok := rowRange(minY, maxY, f.Pitch, f.Size)
	if !ok {
		return s
	}
	lo, hi := float64(y0), float64(y1-1)
	s.edges, s.order, s.active = s.edges[:0], s.order[:0], s.active[:0]
	n := len(poly)
	for i := range n {
		a, c := poly[i], poly[(i+1)%n]
		//cardopc:allow floatcmp a horizontal edge, exactly: equal ends never straddle a sub-scanline
		if a.Y == c.Y {
			continue
		}
		r0 := math.Floor(min(a.Y, c.Y)/f.Pitch) - 1
		r1 := math.Floor(max(a.Y, c.Y)/f.Pitch) + 1
		if !(r0 <= hi && r1 >= lo) {
			continue // never live on [y0, y1), or a NaN end
		}
		s.order = append(s.order, uint64(max(r0, lo))<<32|uint64(len(s.edges)))
		s.edges = append(s.edges, edge{a: a, c: c, r1: int32(min(r1, hi))})
	}
	slices.Sort(s.order)

	weight := 1.0 / float64(ss)
	next := 0
	for py := y0; py < y1; py++ {
		// Retire the edges that ended below this row, admit the ones
		// that start on it.
		live := s.active[:0]
		for _, e := range s.active {
			if int(e.r1) >= py {
				live = append(live, e)
			}
		}
		for ; next < len(s.order) && int(s.order[next]>>32) <= py; next++ {
			live = append(live, s.edges[uint32(s.order[next])])
		}
		s.active = live
		if len(live) == 0 {
			if next == len(s.order) {
				break
			}
			continue
		}
		for sub := 0; sub < ss; sub++ {
			// World y of this sub-scanline.
			wy := (float64(py) + (float64(sub)+0.5)/float64(ss)) * f.Pitch
			xs := s.xs[:0]
			for _, e := range live {
				a, c := e.a, e.c
				if (a.Y > wy) == (c.Y > wy) {
					continue
				}
				x := a.X + (wy-a.Y)/(c.Y-a.Y)*(c.X-a.X)
				if math.IsNaN(x) {
					continue // 0·Inf or Inf − Inf: an edge whose x extent overflowed
				}
				xs = append(xs, x)
			}
			s.xs = xs
			if len(xs) < 2 {
				continue
			}
			sort.Float64s(xs)
			for k := 0; k+1 < len(xs); k += 2 {
				c0, c1 := f.addSpan(xs[k], xs[k+1], py, weight)
				if rows != nil && c0 < c1 {
					rows[py].widen(c0, c1)
				}
			}
		}
	}
	return s
}

// rowRange returns the pixel rows [y0, y1) a fill of a polygon spanning
// world y minY…maxY visits: one row of margin either side, clamped to
// the raster in float64 before the conversion to int, so an extent
// beyond the int range cannot wrap. ok is false when no row is visited,
// or when the extent is NaN.
func rowRange(minY, maxY, pitch float64, size int) (y0, y1 int, ok bool) {
	lo := max(math.Floor(minY/pitch-1), 0)
	hi := min(math.Ceil(maxY/pitch+1), float64(size))
	if !(lo < hi) {
		return 0, 0, false
	}
	return int(lo), int(hi), true
}

// addSpan adds weight×coverage to row py for the world-x interval [x0, x1]
// and returns the columns [c0, c1) it wrote (c0 >= c1 when none).
func (f *Field) addSpan(x0, x1 float64, py int, weight float64) (c0, c1 int) {
	if x1 <= x0 {
		return 0, 0
	}
	p0 := x0 / f.Pitch
	p1 := x1 / f.Pitch
	if p1 <= 0 || p0 >= float64(f.Size) {
		return 0, 0
	}
	if p0 < 0 {
		p0 = 0
	}
	if p1 > float64(f.Size) {
		p1 = float64(f.Size)
	}
	i0 := int(math.Floor(p0))
	i1 := int(math.Floor(p1))
	row := f.Data[py*f.Size:]
	if i0 == i1 {
		if i0 >= 0 && i0 < f.Size {
			row[i0] += (p1 - p0) * weight
			return i0, i0 + 1
		}
		return 0, 0
	}
	// Left partial pixel.
	row[i0] += (float64(i0+1) - p0) * weight
	// Full pixels.
	for x := i0 + 1; x < i1 && x < f.Size; x++ {
		row[x] += weight
	}
	// Right partial pixel.
	if i1 < f.Size {
		row[i1] += (p1 - float64(i1)) * weight
		return i0, i1 + 1
	}
	return i0, f.Size
}

// Clamp01 clamps every pixel into [0, 1].
func (f *Field) Clamp01() { clamp01(f.Data) }

func clamp01(d []float64) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		} else if v > 1 {
			d[i] = 1
		}
	}
}

// span is a row's written columns [x0, x1); empty when x0 >= x1.
type span struct{ x0, x1 int }

func (r *span) widen(x0, x1 int) {
	r.x0 = min(r.x0, x0)
	r.x1 = max(r.x1, x1)
}

// Painter fills polygons into one Field at the cost of what they cover. It
// records, per row, the columns its fills wrote since the last Clear, and
// Clear and Clamp01 touch only those spans: every other pixel is +0, which
// clearing and clamping leave as it is, so the field holds the same bits
// as a whole-raster clear, fill and Clamp01. Its edge, crossing and span
// scratch is reused from fill to fill, so a warm Painter allocates nothing.
//
// Between a Painter's Clear calls nothing else may make a pixel outside
// its spans anything but +0, though it may rewrite pixels inside them.
type Painter struct {
	f    *Field
	rows []span
	scan scan
}

// NewPainter returns a Painter over f, which must be +0 everywhere, as
// NewField returns it.
func NewPainter(f *Field) *Painter {
	p := &Painter{f: f, rows: make([]span, f.Size)}
	p.forget()
	return p
}

// Field returns the field p paints.
func (p *Painter) Field() *Field { return p.f }

// Fill adds poly's coverage to the field, as FillPolygon does.
func (p *Painter) Fill(poly geom.Polygon, ss int) {
	p.scan = p.f.fill(p.scan, poly, ss, p.rows)
}

// Clamp01 clamps the pixels written since the last Clear into [0, 1].
func (p *Painter) Clamp01() {
	for py, r := range p.rows {
		if r.x0 < r.x1 {
			clamp01(p.f.Data[py*p.f.Size+r.x0 : py*p.f.Size+r.x1])
		}
	}
}

// Clear zeroes the pixels written since the last Clear, leaving the
// whole field +0.
func (p *Painter) Clear() {
	for py, r := range p.rows {
		if r.x0 < r.x1 {
			clear(p.f.Data[py*p.f.Size+r.x0 : py*p.f.Size+r.x1])
		}
	}
	p.forget()
}

// forget empties every row's span.
func (p *Painter) forget() {
	for py := range p.rows {
		p.rows[py] = span{x0: p.f.Size}
	}
}

// Rasterize renders polys into a fresh field with ss-fold supersampling and
// clamps coverage to [0,1], through a Painter, so the clamp costs what the
// polygons cover rather than the raster.
func Rasterize(g Grid, polys []geom.Polygon, ss int) *Field {
	defer obs.Start("raster.rasterize").End()
	f := NewField(g)
	p := NewPainter(f)
	for _, poly := range polys {
		p.Fill(poly, ss)
	}
	p.Clamp01()
	return f
}
