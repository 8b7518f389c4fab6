// Package raster converts between the vector world (polygons, spline
// samples) and the pixel world the lithography simulator operates in. It
// provides scanline polygon fill with supersampled coverage, bilinear field
// sampling, Suzuki–Abe border following (the contour tracer the paper's ILT
// fitting step cites) and marching-squares iso-contours.
package raster

import (
	"math"
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
// [0,1], computed with ss×ss supersampling along y (scanlines at ss
// sub-rows per pixel row with exact horizontal spans). Overlapping fills
// accumulate and are clamped by Clamp01 if the caller wants hard masks.
func (f *Field) FillPolygon(poly geom.Polygon, ss int) {
	if len(poly) < 3 {
		return
	}
	if ss < 1 {
		ss = 1
	}
	b := poly.Bounds()
	y0 := int(math.Floor(b.Min.Y/f.Pitch - 1))
	y1 := int(math.Ceil(b.Max.Y/f.Pitch + 1))
	if y0 < 0 {
		y0 = 0
	}
	if y1 > f.Size {
		y1 = f.Size
	}
	n := len(poly)
	var xs []float64
	weight := 1.0 / float64(ss)
	for py := y0; py < y1; py++ {
		for sub := 0; sub < ss; sub++ {
			// World y of this sub-scanline.
			wy := (float64(py) + (float64(sub)+0.5)/float64(ss)) * f.Pitch
			xs = xs[:0]
			for i := 0; i < n; i++ {
				a, c := poly[i], poly[(i+1)%n]
				if (a.Y > wy) == (c.Y > wy) {
					continue
				}
				x := a.X + (wy-a.Y)/(c.Y-a.Y)*(c.X-a.X)
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

// addSpan adds weight×coverage to row py for the world-x interval [x0, x1].
func (f *Field) addSpan(x0, x1 float64, py int, weight float64) {
	if x1 <= x0 {
		return
	}
	p0 := x0 / f.Pitch
	p1 := x1 / f.Pitch
	if p1 <= 0 || p0 >= float64(f.Size) {
		return
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
		}
		return
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
	}
}

// Clamp01 clamps every pixel into [0, 1].
func (f *Field) Clamp01() {
	for i, v := range f.Data {
		if v < 0 {
			f.Data[i] = 0
		} else if v > 1 {
			f.Data[i] = 1
		}
	}
}

// Rasterize renders polys into a fresh field with ss-fold supersampling and
// clamps coverage to [0,1].
func Rasterize(g Grid, polys []geom.Polygon, ss int) *Field {
	defer obs.Start("raster.rasterize").End()
	f := NewField(g)
	for _, p := range polys {
		f.FillPolygon(p, ss)
	}
	f.Clamp01()
	return f
}
