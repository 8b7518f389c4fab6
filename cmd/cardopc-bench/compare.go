package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchDef(path string) (benchDef, error) {
	var d benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// loadRecords reads a -record file.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric over the records of a workload whose
// trace flag matches.
func values(rs []record, workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// incorrect counts a workload's records that failed their checks.
func incorrect(rs []record, workload string) (bad, n int) {
	for _, r := range rs {
		if r.Workload == workload {
			n++
			if !r.Result.Correct || r.Result.Failed > 0 {
				bad++
			}
		}
	}
	return bad, n
}

// verdict compares B against A for one metric: "worse" when B's median
// is worse than A's by more than bound, "unresolved" when a side's
// quartile spread is wider than the bound (unless every B run beats
// every A run), "ok" otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	change := (mb - ma) / ma
	worseBy := change
	if !lowerBetter {
		worseBy = -change
	}
	spread := math.Max((q3a-q1a)/ma, (q3b-q1b)/mb)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		return "unresolved", change
	case worseBy > bound:
		return "WORSE", change
	}
	return "ok", change
}

// runCompare prints, per workload and metric, both sides' median and
// quartiles from two -record files and checks each end-to-end metric
// against its BENCHMARK.json bound. It exits 1 when a metric is worse.
func runCompare(args []string, stdout, stderr *bufio.Writer) int {
	fs := flag.NewFlagSet("cardopc-bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defPath := fs.String("bench", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: cardopc-bench compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	def, err := loadBenchDef(*defPath)
	if err != nil {
		fmt.Fprintln(stderr, "cardopc-bench compare:", err)
		return 2
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "cardopc-bench compare:", err)
		return 2
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "cardopc-bench compare:", err)
		return 2
	}

	worse := false
	row := "%-24s %-8s %11.5g %11.5g %11.5g   %11.5g %11.5g %11.5g %+8.2f%%  %s\n"
	for _, w := range def.Workloads {
		badA, nA := incorrect(a, w.Name)
		badB, nB := incorrect(b, w.Name)
		if nA == 0 && nB == 0 {
			continue
		}
		fmt.Fprintf(stdout, "== %s: A %d runs (%d failing checks), B %d runs (%d failing checks)\n", w.Name, nA, badA, nB, badB)
		fmt.Fprintf(stdout, "%-24s %-8s %11s %11s %11s   %11s %11s %11s %9s  %s\n",
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "verdict")
		for _, m := range def.EndToEnd {
			va, vb := values(a, w.Name, m.Name, false), values(b, w.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(va, vb, m.Better == "lower", m.Bound)
			worse = worse || v == "WORSE"
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(stdout, row, m.Name, m.Unit, q1a, ma, q3a, q1b, mb, q3b, 100*change, fmt.Sprintf("%s (bound %g%%)", v, 100*m.Bound))
		}
		for _, m := range def.PerLayer {
			va, vb := values(a, w.Name, m.Name, true), values(b, w.Name, m.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(stdout, row, m.Name, m.Unit, q1a, ma, q3a, q1b, mb, q3b, 100*(mb-ma)/ma, "per-layer")
		}
	}
	if worse {
		return 1
	}
	return 0
}
