package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) of the metrics
// registry, stdlib-only like the rest of the package. The mapping:
//
//   - counter "opc.iterations"  → cardopc_opc_iterations_total
//   - gauge   "opc.loss"        → cardopc_opc_loss
//   - histogram "span.x.ms"     → cardopc_span_x_ms_bucket{le="…"} (cumulative),
//     _sum, _count, plus estimated quantiles as the gauge family
//     cardopc_span_x_ms_quantile{quantile="0.5|0.9|0.99"}
//
// Families are emitted in sorted name order with TYPE comments first,
// so the output is deterministic and parseable by promtool; the
// repo-side contract is pinned by ValidateProm (promlint.go) in lieu
// of a promtool dependency.

// PromContentType is the exposition content type scrapers expect.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promQuantiles are the summary quantiles estimated from histogram
// buckets.
var promQuantiles = []float64{0.5, 0.9, 0.99}

// promName sanitises a dotted registry name into a Prometheus metric
// name: the cardopc_ namespace prefix, with every character outside
// [a-zA-Z0-9_:] mapped to '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("cardopc_") + len(name))
	b.WriteString("cardopc_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value: shortest round-trip for finite
// values, the exposition spellings for the specials.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return trimFloat(v)
}

// WriteProm renders the registry in the Prometheus text format. A nil
// registry writes nothing (an empty exposition is valid). The write is
// a point-in-time view: handles are collected under the read lock,
// values read lock-free afterwards.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	type named[T any] struct {
		name string
		m    T
	}
	r.mu.RLock()
	counters := make([]named[*Counter], 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, named[*Counter]{name, c})
	}
	gauges := make([]named[*Gauge], 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, named[*Gauge]{name, g})
	}
	hists := make([]named[*Histogram], 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, named[*Histogram]{name, h})
	}
	r.mu.RUnlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	for _, c := range counters {
		pn := promName(c.name) + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s cardopc counter %s\n# TYPE %s counter\n%s %d\n",
			pn, c.name, pn, pn, c.m.Value()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		pn := promName(g.name)
		if _, err := fmt.Fprintf(w, "# HELP %s cardopc gauge %s\n# TYPE %s gauge\n%s %s\n",
			pn, g.name, pn, pn, promFloat(g.m.Value())); err != nil {
			return err
		}
	}
	for _, h := range hists {
		if err := writePromHistogram(w, h.name, h.m); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram family (cumulative buckets,
// sum, count) followed by its estimated-quantile gauge family.
func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	pn := promName(name)
	if _, err := fmt.Fprintf(w, "# HELP %s cardopc histogram %s\n# TYPE %s histogram\n", pn, name, pn); err != nil {
		return err
	}
	buckets := h.Buckets()
	cum := int64(0)
	for _, b := range buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(b.UpperBound), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promFloat(h.Sum()), pn, h.Count()); err != nil {
		return err
	}
	qn := pn + "_quantile"
	if _, err := fmt.Fprintf(w, "# HELP %s estimated quantiles of %s\n# TYPE %s gauge\n", qn, name, qn); err != nil {
		return err
	}
	for _, q := range promQuantiles {
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", qn, trimFloat(q), promFloat(bucketQuantile(buckets, q))); err != nil {
			return err
		}
	}
	return nil
}

// bucketQuantile estimates the q-quantile from per-bucket counts with
// linear interpolation inside the containing bucket, mirroring
// Prometheus's histogram_quantile: the first bucket's lower edge is 0,
// observations in the overflow bucket clamp to the highest finite
// bound, and an empty histogram yields NaN.
func bucketQuantile(buckets []BucketCount, q float64) float64 {
	total := int64(0)
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	lower := 0.0
	for i, b := range buckets {
		prev := cum
		cum += b.Count
		if float64(cum) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				if i > 0 {
					return buckets[i-1].UpperBound
				}
				return math.NaN()
			}
			if b.Count == 0 {
				return b.UpperBound
			}
			frac := (rank - float64(prev)) / float64(b.Count)
			return lower + (b.UpperBound-lower)*frac
		}
		if !math.IsInf(b.UpperBound, 1) {
			lower = b.UpperBound
		}
	}
	return lower
}

// PromHandler serves the process-wide registry as a Prometheus
// exposition. The handler re-reads the installed state per request, so
// it tracks Setup/teardown like the expvar bridge.
func PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = Metrics().WriteProm(w)
	})
}
