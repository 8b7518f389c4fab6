package metrics

import "cardopc/internal/geom"

// ProbeSamples returns every point at which MeasureEPE may sample the
// field for pr, measured with cfg on a raster of the given pitch: the
// walk, then the unresolved fallback.
func ProbeSamples(pr Probe, pitch float64, cfg EPEConfig) []geom.Pt {
	w := newWalk(pitch, cfg)
	var pts []geom.Pt
	for k := -w.steps; k <= w.steps; k++ {
		pts = append(pts, w.at(pr, k))
	}
	return append(pts, w.at(pr, -1))
}
