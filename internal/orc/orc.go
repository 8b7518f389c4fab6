// Package orc implements optical (lithography) rule checking — the
// verification step that follows OPC in production flows. It images the
// final mask across the process-window corners and reports printability
// defects the EPE/PVB summary numbers can hide:
//
//   - Bridge: one printed blob spans two or more distinct target shapes.
//   - Neck:   the printed CD across a target drops below spec.
//   - Missing: a target fails to print at all.
//   - Extra:  a printed blob touches no target (an assist feature printing).
package orc

import (
	"fmt"
	"sort"

	"cardopc/internal/fft"
	"cardopc/internal/geom"
	"cardopc/internal/litho"
	"cardopc/internal/metrics"
	"cardopc/internal/obs"
	"cardopc/internal/pw"
	"cardopc/internal/raster"
)

// Kind enumerates defect classes.
type Kind int

const (
	// Bridge marks two targets shorted by one printed blob.
	Bridge Kind = iota
	// Neck marks a printed CD below spec inside a target.
	Neck
	// Missing marks a target that does not print.
	Missing
	// Extra marks printing with no corresponding target.
	Extra
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Bridge:
		return "bridge"
	case Neck:
		return "neck"
	case Missing:
		return "missing"
	case Extra:
		return "extra"
	default:
		return "unknown"
	}
}

// Defect is one printability violation.
type Defect struct {
	Kind Kind
	// Corner names the process condition ("nominal", "inner", "outer").
	Corner string
	// Target indexes the affected target (-1 for Extra defects).
	Target int
	// Pos locates the defect.
	Pos geom.Pt
	// Value carries the measured quantity (CD for necks, blob area in nm²
	// for extras, 0 otherwise).
	Value float64
}

// String implements fmt.Stringer.
func (d Defect) String() string {
	return fmt.Sprintf("%s@%s target %d %v", d.Kind, d.Corner, d.Target, d.Pos)
}

// Config tunes the checks.
type Config struct {
	// NeckFrac is the minimum acceptable printed CD as a fraction of the
	// target's drawn width.
	NeckFrac float64
	// ExtraMinAreaNM2 ignores printed specks smaller than this.
	ExtraMinAreaNM2 float64
	// CDSpacing is the spacing of neck-check cuts along each target.
	CDSpacing float64
}

// DefaultConfig returns production-like settings: necks below 70 % of drawn
// CD, extra prints above 400 nm².
func DefaultConfig() Config {
	return Config{NeckFrac: 0.7, ExtraMinAreaNM2: 400, CDSpacing: 60}
}

// Verify images the mask at all three process corners and runs every check.
func Verify(proc *litho.Process, maskPolys, targets []geom.Polygon, cfg Config) []Defect {
	span := obs.Start("orc.verify")
	g := proc.Nominal.Grid()
	mask := raster.Rasterize(g, maskPolys, 4)
	mf := fft.GetGrid(mask.Size, mask.Size)
	litho.MaskFreqInto(mf, mask)
	nomA, innerA, outerA := proc.AerialAllFromFreq(mf)
	fft.PutGrid(mf)

	var out []Defect
	out = append(out, verifyCorner("nominal", nomA, proc.Nominal.Config().Threshold, targets, cfg)...)
	out = append(out, verifyCorner("inner", innerA, proc.Inner.Config().Threshold, targets, cfg)...)
	out = append(out, verifyCorner("outer", outerA, proc.Outer.Config().Threshold, targets, cfg)...)
	for _, d := range out {
		obs.C("orc.defects." + d.Kind.String()).Inc()
	}
	span.End(obs.A("defects", len(out)))
	return out
}

func verifyCorner(corner string, aerial *raster.Field, th float64, targets []geom.Polygon, cfg Config) []Defect {
	var out []Defect
	printed := aerial.Threshold(th)
	labels, _ := printed.Label()
	g := printed.Grid

	// Map each target to the set of print labels under it, probing the
	// measure points (interior side) and the centroid.
	targetLabels := make([]map[int32]bool, len(targets))
	for ti, t := range targets {
		targetLabels[ti] = map[int32]bool{}
		for _, p := range interiorSamples(t, cfg.CDSpacing) {
			px, py := g.ToPixel(p)
			x, y := int(px+0.5), int(py+0.5)
			if x < 0 || y < 0 || x >= g.Size || y >= g.Size {
				continue
			}
			if l := labels[y*g.Size+x]; l != 0 {
				targetLabels[ti][l] = true
			}
		}
		if len(targetLabels[ti]) == 0 {
			out = append(out, Defect{Kind: Missing, Corner: corner, Target: ti, Pos: t.Centroid()})
		}
	}

	// Bridges: one label claimed by 2+ targets. Walk each target's label
	// set in sorted order so defect order (and bridge ownership ties) do
	// not depend on map iteration.
	owner := map[int32]int{}
	for ti, set := range targetLabels {
		labs := make([]int32, 0, len(set))
		for l := range set {
			labs = append(labs, l)
		}
		sort.Slice(labs, func(i, j int) bool { return labs[i] < labs[j] })
		for _, l := range labs {
			if prev, ok := owner[l]; ok && prev != ti {
				out = append(out, Defect{Kind: Bridge, Corner: corner, Target: ti, Pos: targets[ti].Centroid()})
			} else {
				owner[l] = ti
			}
		}
	}

	// Necks: CD cuts along each target.
	for ti, t := range targets {
		if len(targetLabels[ti]) == 0 {
			continue // already Missing
		}
		for _, cutAt := range metrics.ProbesFromPolygon(t, cfg.CDSpacing) {
			// Cut inward from the edge probe: centre the cut a half-CD
			// inside along the inward normal.
			width := localWidth(t, cutAt)
			if width <= 0 {
				continue
			}
			centre := cutAt.Pos.Add(cutAt.Normal.Mul(-width / 2))
			cd := pw.MeasureCD(aerial, pw.Cut{Center: centre, Dir: cutAt.Normal}, th, width*2)
			if cd > 0 && cd < cfg.NeckFrac*width {
				out = append(out, Defect{Kind: Neck, Corner: corner, Target: ti, Pos: centre, Value: cd})
			}
		}
	}

	// Extras: printed labels owned by no target.
	areas := map[int32]int{}
	sumX := map[int32]float64{}
	sumY := map[int32]float64{}
	for y := 0; y < g.Size; y++ {
		for x := 0; x < g.Size; x++ {
			l := labels[y*g.Size+x]
			if l == 0 {
				continue
			}
			areas[l]++
			w := g.ToWorld(float64(x), float64(y))
			sumX[l] += w.X
			sumY[l] += w.Y
		}
	}
	// Report extras in ascending label order, not map order.
	extraLabs := make([]int32, 0, len(areas))
	for l := range areas {
		extraLabs = append(extraLabs, l)
	}
	sort.Slice(extraLabs, func(i, j int) bool { return extraLabs[i] < extraLabs[j] })
	for _, l := range extraLabs {
		n := areas[l]
		if _, owned := owner[l]; owned {
			continue
		}
		area := float64(n) * g.Pitch * g.Pitch
		if area < cfg.ExtraMinAreaNM2 {
			continue
		}
		c := geom.P(sumX[l]/float64(n), sumY[l]/float64(n))
		// An unowned label might still belong to a target whose sample
		// points just missed it; only flag blobs clearly outside all
		// targets.
		inside := false
		for _, t := range targets {
			if t.Contains(c) {
				inside = true
				break
			}
		}
		if !inside {
			out = append(out, Defect{Kind: Extra, Corner: corner, Target: -1, Pos: c, Value: area})
		}
	}
	return out
}

// interiorSamples returns points just inside the target boundary plus the
// centroid.
func interiorSamples(t geom.Polygon, spacing float64) []geom.Pt {
	probes := metrics.ProbesFromPolygon(t, spacing)
	out := make([]geom.Pt, 0, len(probes)+1)
	for _, p := range probes {
		out = append(out, p.Pos.Add(p.Normal.Mul(-6)))
	}
	out = append(out, t.Centroid())
	return out
}

// localWidth estimates the target's drawn width at a probe: the distance
// from the probe position to the boundary along the inward normal.
func localWidth(t geom.Polygon, probe metrics.Probe) float64 {
	inward := probe.Normal.Mul(-1)
	// March inward until leaving the polygon.
	step := 2.0
	last := 0.0
	for s := step; s <= 400; s += step {
		if !t.Contains(probe.Pos.Add(inward.Mul(s))) {
			return last + step
		}
		last = s
	}
	return last
}

// Count summarises defects per kind.
func Count(ds []Defect) map[Kind]int {
	out := map[Kind]int{}
	for _, d := range ds {
		out[d.Kind]++
	}
	return out
}
