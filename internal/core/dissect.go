package core

import (
	"cardopc/internal/geom"
	"cardopc/internal/metrics"
	"cardopc/internal/spline"
)

// Segment is one dissection fragment of a target polygon edge (Fig. 3b).
type Segment struct {
	Seg geom.Seg
	// Corner marks fragments adjacent to a polygon corner (length l_c).
	Corner bool
}

// DissectEdge splits one polygon edge into corner fragments of length lc at
// both ends and uniform fragments of ~lu in between (paper Fig. 3b). Edges
// shorter than 2·lc come back as a single fragment.
func DissectEdge(e geom.Seg, lc, lu float64) []Segment {
	l := e.Len()
	if l == 0 {
		return nil
	}
	if l <= 2*lc {
		return []Segment{{Seg: e, Corner: true}}
	}
	var out []Segment
	// Leading corner fragment.
	t0 := lc / l
	out = append(out, Segment{Seg: geom.Seg{A: e.A, B: e.At(t0)}, Corner: true})
	// Uniform middle fragments.
	mid := l - 2*lc
	n := int(mid / lu)
	if n < 1 {
		n = 1
	}
	step := mid / float64(n) / l
	t := t0
	for k := 0; k < n; k++ {
		out = append(out, Segment{Seg: geom.Seg{A: e.At(t), B: e.At(t + step)}})
		t += step
	}
	// Trailing corner fragment.
	out = append(out, Segment{Seg: geom.Seg{A: e.At(1 - lc/l), B: e.B}, Corner: true})
	return out
}

// CtrlPoint is one generated control point together with its EPE probe:
// the conventional measure point on the target edge the point came from.
// Aligning the correction feedback with the measurement convention (edge
// centres for short via edges, every ProbeSpacing nm on long edges) is what
// lets the controller drive the *reported* EPE to zero instead of balancing
// an unresolvable intra-edge ripple.
type CtrlPoint struct {
	Pos    geom.Pt
	Corner bool
	Probe  metrics.Probe
}

// BuildControlPoints generates the tagged control points of a target
// polygon with their probes. Fragment points probe at the nearest measure
// point of their edge; corner points carry their own (diagnostic-only)
// corner probe.
func BuildControlPoints(poly geom.Polygon, cfg Config) []CtrlPoint {
	poly = poly.Clone().EnsureCCW()
	var out []CtrlPoint
	n := len(poly)
	basis := spline.NewBasis(cfg.Tension)
	for ei := 0; ei < n; ei++ {
		e := poly.Edge(ei)
		//cardopc:allow floatcmp exact zero means coincident endpoints; an epsilon would drop tiny real edges
		if e.Len() == 0 {
			continue
		}
		outNormal := e.Normal().Mul(-1)
		measures := EdgeMeasurePoints(e, cfg.ProbeSpacing)
		frags := DissectEdge(e, cfg.CornerSegLen, cfg.UniformSegLen)
		for _, f := range frags {
			mid := f.Seg.Mid()
			out = append(out, CtrlPoint{
				Pos:   mid,
				Probe: metrics.Probe{Pos: NearestPt(measures, mid), Normal: outNormal},
			})
		}
		// Corner control point between this edge's last fragment and the
		// next edge's first fragment (the shared polygon vertex).
		last := frags[len(frags)-1]
		nextEdge := poly.Edge((ei + 1) % n)
		nextFrags := DissectEdge(nextEdge, cfg.CornerSegLen, cfg.UniformSegLen)
		if len(nextFrags) == 0 {
			continue
		}
		first := nextFrags[0]
		w := basis.Weights(0.5)
		p := geom.Pt{
			X: w[0]*last.Seg.A.X + w[1]*last.Seg.Mid().X + w[2]*first.Seg.Mid().X + w[3]*first.Seg.B.X,
			Y: w[0]*last.Seg.A.Y + w[1]*last.Seg.Mid().Y + w[2]*first.Seg.Mid().Y + w[3]*first.Seg.B.Y,
		}
		cv := last.Seg.B
		pos := p.Lerp(cv, 0.7)
		// Corner probe along the outward bisector.
		bis := outNormal.Add(nextEdge.Normal().Mul(-1)).Unit()
		out = append(out, CtrlPoint{
			Pos:    pos,
			Corner: true,
			Probe:  metrics.Probe{Pos: cv, Normal: bis},
		})
	}
	return out
}

// EdgeMeasurePoints places the conventional EPE measure points on one edge:
// the centre for short edges, else every spacing nm.
func EdgeMeasurePoints(e geom.Seg, spacing float64) []geom.Pt {
	l := e.Len()
	if spacing <= 0 || l <= spacing {
		return []geom.Pt{e.Mid()}
	}
	count := int(l / spacing)
	pts := make([]geom.Pt, count)
	for k := 0; k < count; k++ {
		pts[k] = e.At((float64(k) + 0.5) / float64(count))
	}
	return pts
}

// NearestPt returns the element of pts closest to q.
func NearestPt(pts []geom.Pt, q geom.Pt) geom.Pt {
	best := pts[0]
	bd := q.Dist(best)
	for _, p := range pts[1:] {
		if d := q.Dist(p); d < bd {
			bd, best = d, p
		}
	}
	return best
}

// UniformControlPoints places control points every lu along the polygon
// boundary — used for SRAFs and fitted shapes where corner fidelity is not
// needed.
func UniformControlPoints(poly geom.Polygon, lu float64) []geom.Pt {
	per := poly.Perimeter()
	n := int(per / lu)
	if n < 4 {
		n = 4
	}
	return []geom.Pt(poly.Clone().EnsureCCW().Resample(n))
}
