// Package perf is the benchmark-tracking subsystem behind cmd/benchdiff:
// a parser for `go test -bench` output, a runner that measures the
// tracked set in two source trees side by side, and a noise-aware
// comparator that classifies each benchmark of the change against the
// base as ok / improved / regressed / new / vanished.
//
// The package is stdlib-only, mirroring internal/analysis: the perf gate
// must never acquire dependencies the pipeline itself does not have.
//
// Pipeline shape (see DESIGN.md "Performance tracking"):
//
//	RunPair(head tree, base tree) ──► raw output per tree ──► Parse ──► Samples
//	                                                                    │ median per metric
//	                                            Compare(head, base) ◄───┘
//	                                                 └──► Report / exit code
package perf

import "sort"

// Sample is one benchmark line: one measurement of every reported metric.
// Running with -count=N yields N samples per benchmark.
type Sample struct {
	// Iters is the iteration count the testing package settled on.
	Iters int
	// Procs is the GOMAXPROCS suffix of the benchmark name (1 if absent).
	Procs int
	// Metrics maps unit → value: "ns/op", "B/op", "allocs/op", "MB/s",
	// and any custom b.ReportMetric unit.
	Metrics map[string]float64
}

// Median returns the median of vs (mean of the middle pair for even
// lengths). It copies vs; the input is not reordered.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MedianMetrics collapses samples into one metric map, taking the median
// over the samples that report each unit.
func MedianMetrics(samples []Sample) map[string]float64 {
	byUnit := map[string][]float64{}
	for _, s := range samples {
		for unit, v := range s.Metrics {
			byUnit[unit] = append(byUnit[unit], v)
		}
	}
	out := make(map[string]float64, len(byUnit))
	for unit, vs := range byUnit {
		out[unit] = Median(vs)
	}
	return out
}
