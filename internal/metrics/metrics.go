// Package metrics implements the OPC quality metrics the paper reports:
// edge placement error (EPE) measured at probe points along edge normals,
// squared-error image distance (L2), and the process variation band (PVB).
package metrics

import (
	"fmt"
	"math"

	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

// Probe is an EPE measurement site: a point on the target pattern's edge
// and the outward unit normal of that edge.
type Probe struct {
	Pos    geom.Pt
	Normal geom.Pt
}

// EPEResult aggregates edge placement errors over a set of probes.
type EPEResult struct {
	// PerProbe holds the signed EPE of each probe in nm (positive =
	// printed edge lies outside the target edge).
	PerProbe []float64
	// SumAbs is Σ|EPE| in nm — the "EPE (nm)" column of Tables I/II.
	SumAbs float64
	// Violations counts probes with |EPE| > the checking threshold — the
	// "EPE violations" metric of Table III and Fig. 7.
	Violations int
	// Unresolved counts probes where no printed edge was found within the
	// search range; these also count as violations.
	Unresolved int
}

// EPEConfig controls EPE measurement.
type EPEConfig struct {
	// SearchNM bounds the bisection range along the probe normal.
	SearchNM float64
	// ThresholdNM is the violation threshold (ICCAD-13 uses 15 nm; the
	// via/metal experiments use 15 too unless noted).
	ThresholdNM float64
	// Intensity threshold defining the printed contour.
	Ith float64
}

// DefaultEPEConfig returns the thresholds used across the experiments.
func DefaultEPEConfig(ith float64) EPEConfig {
	return EPEConfig{SearchNM: 60, ThresholdNM: 15, Ith: ith}
}

// MeasureEPE computes the signed EPE at each probe against the aerial image:
// the signed distance from the probe position to the threshold crossing of
// the intensity profile along the probe normal, found by sampling and
// sub-pixel linear interpolation. A probe is "unresolved" when the profile
// never crosses the threshold within ±SearchNM; it is assigned ±SearchNM
// (printed edge entirely missing or engulfing) and counted in Unresolved.
// It reads only the rows of aerial that MarkProbeRows marks for the same
// probes and cfg, so an image computed on those rows alone gives the same
// result.
func MeasureEPE(aerial *raster.Field, probes []Probe, cfg EPEConfig) EPEResult {
	res := EPEResult{PerProbe: make([]float64, len(probes))}
	w := newWalk(aerial.Pitch, cfg)
	for pi, pr := range probes {
		e, ok := crossing(aerial, pr, cfg.Ith, w)
		if !ok {
			res.Unresolved++
			// Inside intensity below threshold → feature lost (large
			// negative); above → engulfed (large positive).
			if aerial.Bilinear(w.at(pr, -1)) < cfg.Ith {
				e = -cfg.SearchNM
			} else {
				e = cfg.SearchNM
			}
		}
		res.PerProbe[pi] = e
		res.SumAbs += math.Abs(e)
		if math.Abs(e) > cfg.ThresholdNM {
			res.Violations++
		}
	}
	return res
}

// MarkProbeRows sets rows[y] for every raster row y that MeasureEPE can
// read when it measures probes with cfg on a field over g: the rows y0
// and y0+1 that each bilinear sample of each probe's walk interpolates
// between, where they lie on the raster. The unresolved-probe fallback
// samples walk point −1, so its rows are among them. Rows already set
// stay set; len(rows) must be g.Size.
func MarkProbeRows(rows []bool, g raster.Grid, probes []Probe, cfg EPEConfig) {
	if len(rows) != g.Size {
		panic(fmt.Sprintf("metrics: %d-row set for a %d px raster", len(rows), g.Size))
	}
	w := newWalk(g.Pitch, cfg)
	for _, pr := range probes {
		for k := -w.steps; k <= w.steps; k++ {
			// raster.Field.Bilinear's row arithmetic.
			_, fy := g.ToPixel(w.at(pr, k))
			y0 := int(math.Floor(fy))
			if y0 >= 0 && y0 < len(rows) {
				rows[y0] = true
			}
			if y1 := y0 + 1; y1 >= 0 && y1 < len(rows) {
				rows[y1] = true
			}
		}
	}
}

// walk is the sampling of one probe's intensity profile: the points at
// s = k·dt along the normal, k = −steps…steps, half a pixel apart or
// closer. MeasureEPE and MarkProbeRows both place samples through it.
type walk struct {
	steps int
	dt    float64
}

func newWalk(pitch float64, cfg EPEConfig) walk {
	steps := int(math.Ceil(cfg.SearchNM / (pitch / 2))) // half-pixel steps
	if steps < 2 {
		steps = 2
	}
	return walk{steps: steps, dt: cfg.SearchNM / float64(steps)}
}

// at returns sample k of probe pr's walk.
func (w walk) at(pr Probe, k int) geom.Pt {
	return pr.Pos.Add(pr.Normal.Mul(float64(k) * w.dt))
}

// crossing walks the intensity profile I(pos + s·normal) for s in
// [-range, +range] looking for the threshold crossing nearest s = 0 and
// refines it linearly.
func crossing(aerial *raster.Field, pr Probe, ith float64, w walk) (float64, bool) {
	dt := w.dt
	prev := aerial.Bilinear(w.at(pr, -w.steps))
	bestS := math.Inf(1)
	found := false
	for k := -w.steps + 1; k <= w.steps; k++ {
		s := float64(k) * dt
		cur := aerial.Bilinear(w.at(pr, k))
		if (prev >= ith) != (cur >= ith) {
			// Linear refinement between s-dt and s.
			t := 0.5
			//cardopc:allow floatcmp exact guard against 0/0 in the linear refinement
			if cur != prev {
				t = (ith - prev) / (cur - prev)
			}
			cand := s - dt + t*dt
			if math.Abs(cand) < math.Abs(bestS) {
				bestS = cand
				found = true
			}
		}
		prev = cur
	}
	if !found {
		return 0, false
	}
	return bestS, true
}

// L2 returns the squared-error distance between the printed binary image and
// the target binary image, in pixel counts (the ICCAD-13 "L2" metric):
// the number of pixels where they disagree.
func L2(printed, target *raster.Binary) int {
	n := 0
	for i := range printed.Data {
		a := printed.Data[i] != 0
		b := target.Data[i] != 0
		if a != b {
			n++
		}
	}
	return n
}

// L2Area returns L2 converted to nm².
func L2Area(printed, target *raster.Binary) float64 {
	return float64(L2(printed, target)) * printed.Pitch * printed.Pitch
}

// PVB returns the process variation band area in nm²: the area covered by
// the union of the corner prints but not their intersection.
func PVB(prints ...*raster.Binary) float64 {
	if len(prints) == 0 {
		return 0
	}
	band := 0
	n := len(prints[0].Data)
	for i := 0; i < n; i++ {
		any := false
		all := true
		for _, p := range prints {
			on := p.Data[i] != 0
			any = any || on
			all = all && on
		}
		if any && !all {
			band++
		}
	}
	return float64(band) * prints[0].Pitch * prints[0].Pitch
}

// ProbesFromPolygon places EPE probes on the edges of a target polygon.
// Vias (small rects) get one probe per edge midpoint; long edges get probes
// every spacingNM (the paper uses 60 nm for metal layers). Probe normals
// point outward for counter-clockwise polygons.
func ProbesFromPolygon(poly geom.Polygon, spacingNM float64) []Probe {
	poly = poly.Clone().EnsureCCW()
	var probes []Probe
	for i := range poly {
		e := poly.Edge(i)
		l := e.Len()
		if l == 0 {
			continue
		}
		// Outward normal for a CCW polygon is the right normal of travel.
		n := e.Normal().Mul(-1)
		if spacingNM <= 0 || l <= spacingNM {
			probes = append(probes, Probe{Pos: e.Mid(), Normal: n})
			continue
		}
		count := int(l / spacingNM)
		for k := 0; k < count; k++ {
			t := (float64(k) + 0.5) / float64(count)
			probes = append(probes, Probe{Pos: e.At(t), Normal: n})
		}
	}
	return probes
}

// ProbesForLayout concatenates probes for every polygon in the target.
func ProbesForLayout(polys []geom.Polygon, spacingNM float64) []Probe {
	var out []Probe
	for _, p := range polys {
		out = append(out, ProbesFromPolygon(p, spacingNM)...)
	}
	return out
}
