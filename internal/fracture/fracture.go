// Package fracture decomposes mask polygons into the horizontal trapezoids
// a variable-shaped-beam (VSB) mask writer shoots. Shot count is the mask
// cost metric that motivates fracturing-aware curvilinear flows (paper ref
// [49]): curvilinear masks print better but fracture into more shots than
// Manhattan masks, and this package quantifies that trade-off.
package fracture

import (
	"math"
	"sort"

	"cardopc/internal/geom"
)

// Trapezoid is one VSB shot: a horizontal band [Y0, Y1] with linear left
// and right edges. X*0 are the x-coordinates at Y0, X*1 at Y1.
type Trapezoid struct {
	Y0, Y1             float64
	XL0, XR0, XL1, XR1 float64
}

// Height returns the band height.
func (t Trapezoid) Height() float64 { return t.Y1 - t.Y0 }

// Area returns the trapezoid's area.
func (t Trapezoid) Area() float64 {
	return ((t.XR0 - t.XL0) + (t.XR1 - t.XL1)) / 2 * t.Height()
}

// IsRect reports whether the shot is an axis-aligned rectangle (the cheap
// shot class on VSB writers) within tol.
func (t Trapezoid) IsRect(tol float64) bool {
	return math.Abs(t.XL0-t.XL1) <= tol && math.Abs(t.XR0-t.XR1) <= tol
}

// Options tunes fracturing.
type Options struct {
	// MaxShotHeight splits tall bands so no shot exceeds the writer's
	// aperture (0 = unlimited).
	MaxShotHeight float64
	// SnapTol merges scanline y-values closer than this (suppresses
	// micro-bands from near-collinear curvilinear sampling).
	SnapTol float64
	// RectTol is the tolerance of the rectangle classification.
	RectTol float64
}

// DefaultOptions returns writer-like settings: 2 µm aperture, 0.25 nm snap.
func DefaultOptions() Options {
	return Options{MaxShotHeight: 2000, SnapTol: 0.25, RectTol: 0.25}
}

// Stats summarises a fractured layout.
type Stats struct {
	// Shots is the total trapezoid count.
	Shots int
	// Rects is how many shots are plain rectangles.
	Rects int
	// Area is the summed shot area in nm².
	Area float64
	// MinHeight is the smallest band height (sliver indicator).
	MinHeight float64
}

// Fracture decomposes one simple polygon into trapezoids by horizontal
// scan-banding: every distinct vertex y starts a band; within a band the
// crossing edges are sorted by midpoint x and paired even-odd.
func Fracture(poly geom.Polygon, opt Options) []Trapezoid {
	n := len(poly)
	if n < 3 {
		return nil
	}
	// Band boundaries: distinct (snapped) vertex y-values.
	ys := make([]float64, 0, n)
	for _, p := range poly {
		ys = append(ys, p.Y)
	}
	sort.Float64s(ys)
	bands := ys[:0]
	for _, y := range ys {
		if len(bands) == 0 || y-bands[len(bands)-1] > opt.SnapTol {
			bands = append(bands, y)
		}
	}
	var out []Trapezoid
	for bi := 0; bi+1 < len(bands); bi++ {
		y0, y1 := bands[bi], bands[bi+1]
		out = appendBandTraps(out, poly, y0, y1)
	}
	if opt.MaxShotHeight > 0 {
		out = splitTall(out, opt.MaxShotHeight)
	}
	return out
}

// appendBandTraps intersects the polygon with band [y0, y1] and appends the
// resulting trapezoids.
func appendBandTraps(out []Trapezoid, poly geom.Polygon, y0, y1 float64) []Trapezoid {
	ymid := (y0 + y1) / 2
	type crossing struct {
		xMid, x0, x1 float64
	}
	var cs []crossing
	n := len(poly)
	for i := 0; i < n; i++ {
		a := poly[i]
		b := poly[(i+1)%n]
		if (a.Y > ymid) == (b.Y > ymid) {
			continue // edge does not span the band midline
		}
		// Edge crosses the whole band (bands split at every vertex y, so
		// any edge crossing the midline spans [y0, y1]).
		xAt := func(y float64) float64 {
			t := (y - a.Y) / (b.Y - a.Y)
			return a.X + t*(b.X-a.X)
		}
		cs = append(cs, crossing{xMid: xAt(ymid), x0: xAt(y0), x1: xAt(y1)})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].xMid < cs[j].xMid })
	for k := 0; k+1 < len(cs); k += 2 {
		l, r := cs[k], cs[k+1]
		out = append(out, Trapezoid{
			Y0: y0, Y1: y1,
			XL0: l.x0, XR0: r.x0,
			XL1: l.x1, XR1: r.x1,
		})
	}
	return out
}

// splitTall subdivides shots exceeding the aperture height.
func splitTall(traps []Trapezoid, maxH float64) []Trapezoid {
	var out []Trapezoid
	for _, t := range traps {
		h := t.Height()
		if h <= maxH {
			out = append(out, t)
			continue
		}
		parts := int(math.Ceil(h / maxH))
		for k := 0; k < parts; k++ {
			f0 := float64(k) / float64(parts)
			f1 := float64(k+1) / float64(parts)
			out = append(out, Trapezoid{
				Y0:  t.Y0 + f0*h,
				Y1:  t.Y0 + f1*h,
				XL0: lerp(t.XL0, t.XL1, f0), XR0: lerp(t.XR0, t.XR1, f0),
				XL1: lerp(t.XL0, t.XL1, f1), XR1: lerp(t.XR0, t.XR1, f1),
			})
		}
	}
	return out
}

func lerp(a, b, t float64) float64 { return a + t*(b-a) }

// FractureAll fractures a layout and aggregates the statistics.
func FractureAll(polys []geom.Polygon, opt Options) ([]Trapezoid, Stats) {
	var all []Trapezoid
	st := Stats{MinHeight: math.Inf(1)}
	for _, p := range polys {
		all = append(all, Fracture(p, opt)...)
	}
	for _, t := range all {
		st.Shots++
		if t.IsRect(opt.RectTol) {
			st.Rects++
		}
		st.Area += t.Area()
		if h := t.Height(); h < st.MinHeight {
			st.MinHeight = h
		}
	}
	if st.Shots == 0 {
		st.MinHeight = 0
	}
	return all, st
}
