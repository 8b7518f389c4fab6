package perf

import (
	"sort"
	"strings"
)

// Class classifies one benchmark (or one metric) of the change against
// the base.
type Class int

const (
	// OK: every shared metric is within tolerance.
	OK Class = iota
	// Improved: at least one metric beat its tolerance and none regressed.
	Improved
	// Regressed: at least one metric exceeded its tolerance.
	Regressed
	// New: the change ran the benchmark and the base did not.
	New
	// Vanished: the base ran the benchmark and the change did not.
	Vanished
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case OK:
		return "ok"
	case Improved:
		return "improved"
	case Regressed:
		return "regressed"
	case New:
		return "new"
	case Vanished:
		return "vanished"
	default:
		return "unknown"
	}
}

// MarshalText makes Class render as its name in JSON reports.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Tolerances maps a metric unit to its allowed relative regression
// (0.30 = the change's median may be up to 30% worse than the base's
// before gating).
// Metrics are smaller-is-better except for rate units — see
// LargerIsBetter — where "worse" means the rate dropped.
type Tolerances map[string]float64

// DefaultTolerances reflects observed jitter of the tracked set under
// -count=5: wall time is the noisiest, allocation counts are nearly
// deterministic. The service-level units (req/s throughput, p99-ms tail
// latency from BenchmarkServeClip) ride on end-to-end job round-trips
// and carry scheduler jitter on top of compute noise, so they get the
// widest bands. Unlisted custom units fall back to DefaultTolerance.
func DefaultTolerances() Tolerances {
	return Tolerances{
		"ns/op":     0.30,
		"B/op":      0.15,
		"allocs/op": 0.10,
		"req/s":     0.35,
		"p99-ms":    0.50,
	}
}

// LargerIsBetter reports whether a metric unit is a rate, where a drop
// (not a rise) is the regression. The convention: any "/s"-suffixed
// unit (req/s, MB/s) is a rate; everything else — times, sizes, counts
// — is smaller-is-better.
func LargerIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/s")
}

// DefaultTolerance applies to units without an explicit entry.
const DefaultTolerance = 0.30

// For returns the tolerance for unit.
func (t Tolerances) For(unit string) float64 {
	if v, ok := t[unit]; ok {
		return v
	}
	return DefaultTolerance
}

// MetricDelta is the comparison of one metric of one benchmark.
type MetricDelta struct {
	Unit string `json:"unit"`
	// Old and New are the base's and the change's medians.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// Delta is (New-Old)/Old; +0.42 means 42% worse. When Old is zero
	// and New is not, Delta is reported as +1 and the metric regresses.
	Delta float64 `json:"delta"`
	// Tol is the tolerance the delta was judged against.
	Tol   float64 `json:"tol"`
	Class Class   `json:"class"`
}

// BenchResult is the classified comparison of one benchmark.
type BenchResult struct {
	Name  string `json:"name"`
	Class Class  `json:"class"`
	// Samples is how many samples the change took.
	Samples int `json:"samples"`
	// Metrics holds per-unit deltas for benchmarks present on both
	// sides, sorted with ns/op first, then alphabetically.
	Metrics []MetricDelta `json:"metrics,omitempty"`
}

// Comparison is the full result of one check run.
type Comparison struct {
	// Results lists the change's benchmarks in run order, then vanished
	// ones in name order.
	Results []BenchResult  `json:"results"`
	Counts  map[string]int `json:"counts"`
}

// Regressions returns the regressed results.
func (c *Comparison) Regressions() []BenchResult {
	var out []BenchResult
	for _, r := range c.Results {
		if r.Class == Regressed {
			out = append(out, r)
		}
	}
	return out
}

// Vanished returns the vanished results.
func (c *Comparison) Vanished() []BenchResult {
	var out []BenchResult
	for _, r := range c.Results {
		if r.Class == Vanished {
			out = append(out, r)
		}
	}
	return out
}

// Compare classifies the change's run against the base's. Medians over
// each side's samples are compared per metric; only units present on
// both sides are judged (a newly reported unit is informational).
func Compare(head, base *ParseResult, tol Tolerances) *Comparison {
	cmp := &Comparison{Counts: map[string]int{}}
	for _, name := range head.Names {
		samples := head.Samples[name]
		r := BenchResult{Name: name, Samples: len(samples)}
		if baseSamples, ok := base.Samples[name]; ok {
			r.Metrics, r.Class = diffMetrics(MedianMetrics(baseSamples), MedianMetrics(samples), tol)
		} else {
			r.Class = New
		}
		cmp.Counts[r.Class.String()]++
		cmp.Results = append(cmp.Results, r)
	}

	var gone []string
	for _, name := range base.Names {
		if _, ran := head.Samples[name]; !ran {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		cmp.Results = append(cmp.Results, BenchResult{Name: name, Class: Vanished})
		cmp.Counts[Vanished.String()]++
	}
	return cmp
}

// diffMetrics compares the shared units of one benchmark and folds the
// per-metric classes into the benchmark class.
func diffMetrics(old, new map[string]float64, tol Tolerances) ([]MetricDelta, Class) {
	units := make([]string, 0, len(old))
	for u := range old {
		if _, ok := new[u]; ok {
			units = append(units, u)
		}
	}
	sort.Slice(units, func(i, j int) bool {
		if (units[i] == "ns/op") != (units[j] == "ns/op") {
			return units[i] == "ns/op"
		}
		return units[i] < units[j]
	})

	deltas := make([]MetricDelta, 0, len(units))
	class := OK
	for _, u := range units {
		d := MetricDelta{Unit: u, Old: old[u], New: new[u], Tol: tol.For(u)}
		switch {
		case d.Old == 0 && d.New == 0:
			d.Delta, d.Class = 0, OK
		case d.Old == 0 && LargerIsBetter(u):
			// A rate appearing from zero is strictly better.
			d.Delta, d.Class = 1, Improved
		case d.Old == 0:
			// No relative scale: treat any appearance as a full
			// regression (e.g. 0 allocs/op growing to 1).
			d.Delta, d.Class = 1, Regressed
		default:
			d.Delta = (d.New - d.Old) / d.Old
			// Delta stays signed as reported ((New-Old)/Old); for rate
			// units the regression direction flips — a drop is worse.
			worse := d.Delta
			if LargerIsBetter(u) {
				worse = -d.Delta
			}
			switch {
			case worse > d.Tol:
				d.Class = Regressed
			case worse < -d.Tol:
				d.Class = Improved
			default:
				d.Class = OK
			}
		}
		switch d.Class {
		case Regressed:
			class = Regressed
		case Improved:
			if class == OK {
				class = Improved
			}
		}
		deltas = append(deltas, d)
	}
	return deltas, class
}
