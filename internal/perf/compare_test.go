package perf

import "testing"

// samplesOf builds a one-benchmark ParseResult with the given ns/op
// samples plus fixed alloc metrics.
func samplesOf(name string, allocs float64, nsop ...float64) *ParseResult {
	res := &ParseResult{Samples: map[string][]Sample{}}
	res.Names = append(res.Names, name)
	for _, v := range nsop {
		res.Samples[name] = append(res.Samples[name], Sample{
			Iters:   10,
			Procs:   4,
			Metrics: map[string]float64{"ns/op": v, "allocs/op": allocs},
		})
	}
	return res
}

// merge folds several single-benchmark results into one run.
func merge(rs ...*ParseResult) *ParseResult {
	out := &ParseResult{Samples: map[string][]Sample{}}
	for _, r := range rs {
		for _, n := range r.Names {
			out.Names = append(out.Names, n)
			out.Samples[n] = r.Samples[n]
		}
	}
	return out
}

func resultFor(t *testing.T, c *Comparison, name string) BenchResult {
	t.Helper()
	for _, r := range c.Results {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("benchmark %q missing from comparison %+v", name, c.Results)
	return BenchResult{}
}

// TestCompareDetectsDoubledTime is the gate's load-bearing test: a
// synthetic 2× ns/op slowdown must classify as regressed and name the
// offending benchmark.
func TestCompareDetectsDoubledTime(t *testing.T) {
	base := merge(
		samplesOf("pkg.BenchmarkHot", 7, 1000, 1010, 990),
		samplesOf("pkg.BenchmarkCold", 3, 500, 500, 500),
	)
	run := merge(
		samplesOf("pkg.BenchmarkHot", 7, 2000, 2020, 1980), // 2× slower
		samplesOf("pkg.BenchmarkCold", 3, 501, 499, 500),
	)
	cmp := Compare(run, base, DefaultTolerances())

	hot := resultFor(t, cmp, "pkg.BenchmarkHot")
	if hot.Class != Regressed {
		t.Fatalf("2x slowdown classified %v, want regressed", hot.Class)
	}
	if hot.Metrics[0].Unit != "ns/op" || hot.Metrics[0].Class != Regressed {
		t.Errorf("leading metric = %+v, want regressed ns/op", hot.Metrics[0])
	}
	if d := hot.Metrics[0].Delta; d < 0.9 || d > 1.1 {
		t.Errorf("delta = %v, want ~+1.0 (i.e. +100%%)", d)
	}
	if cold := resultFor(t, cmp, "pkg.BenchmarkCold"); cold.Class != OK {
		t.Errorf("unchanged benchmark classified %v, want ok", cold.Class)
	}
	if regs := cmp.Regressions(); len(regs) != 1 || regs[0].Name != "pkg.BenchmarkHot" {
		t.Errorf("Regressions() = %+v, want exactly pkg.BenchmarkHot", regs)
	}
}

func TestCompareClasses(t *testing.T) {
	base := merge(
		samplesOf("pkg.BenchmarkStays", 2, 1000),
		samplesOf("pkg.BenchmarkFaster", 2, 1000),
		samplesOf("pkg.BenchmarkGone", 2, 1000),
	)
	run := merge(
		samplesOf("pkg.BenchmarkStays", 2, 1050),   // +5% < 30% tolerance
		samplesOf("pkg.BenchmarkFaster", 2, 500),   // −50%
		samplesOf("pkg.BenchmarkBrandNew", 2, 123), // the base never ran it
	)
	cmp := Compare(run, base, DefaultTolerances())

	for name, want := range map[string]Class{
		"pkg.BenchmarkStays":    OK,
		"pkg.BenchmarkFaster":   Improved,
		"pkg.BenchmarkBrandNew": New,
		"pkg.BenchmarkGone":     Vanished,
	} {
		if got := resultFor(t, cmp, name).Class; got != want {
			t.Errorf("%s classified %v, want %v", name, got, want)
		}
	}
	if gone := cmp.Vanished(); len(gone) != 1 || gone[0].Name != "pkg.BenchmarkGone" {
		t.Errorf("Vanished() = %+v, want exactly pkg.BenchmarkGone", gone)
	}
	want := map[string]int{"ok": 1, "improved": 1, "new": 1, "vanished": 1}
	for k, v := range want {
		if cmp.Counts[k] != v {
			t.Errorf("Counts[%s] = %d, want %d", k, cmp.Counts[k], v)
		}
	}
}

// rateSamples builds a one-benchmark ParseResult carrying the service
// units: req/s (larger-is-better) and p99-ms.
func rateSamples(name string, reqs, p99 float64) *ParseResult {
	res := &ParseResult{Samples: map[string][]Sample{}}
	res.Names = append(res.Names, name)
	res.Samples[name] = []Sample{{
		Iters:   10,
		Procs:   4,
		Metrics: map[string]float64{"ns/op": 1e6, "req/s": reqs, "p99-ms": p99},
	}}
	return res
}

// TestCompareRateUnits: for "/s"-suffixed units the regression direction
// flips — a throughput drop gates, a throughput rise is an improvement —
// while p99-ms keeps the smaller-is-better sense.
func TestCompareRateUnits(t *testing.T) {
	base := merge(
		rateSamples("pkg.BenchmarkServeDrop", 100, 10),
		rateSamples("pkg.BenchmarkServeRise", 100, 10),
		rateSamples("pkg.BenchmarkServeTail", 100, 10),
	)
	run := merge(
		rateSamples("pkg.BenchmarkServeDrop", 40, 10),  // −60% req/s: regressed
		rateSamples("pkg.BenchmarkServeRise", 200, 10), // +100% req/s: improved
		rateSamples("pkg.BenchmarkServeTail", 100, 40), // 4× p99-ms: regressed
	)
	cmp := Compare(run, base, DefaultTolerances())

	drop := resultFor(t, cmp, "pkg.BenchmarkServeDrop")
	if drop.Class != Regressed {
		t.Fatalf("req/s drop classified %v, want regressed", drop.Class)
	}
	for _, m := range drop.Metrics {
		if m.Unit == "req/s" {
			if m.Class != Regressed {
				t.Errorf("req/s metric classified %v, want regressed", m.Class)
			}
			if m.Delta > 0 {
				t.Errorf("req/s delta = %v, want the signed raw drop (negative)", m.Delta)
			}
		}
	}
	if rise := resultFor(t, cmp, "pkg.BenchmarkServeRise"); rise.Class != Improved {
		t.Errorf("req/s rise classified %v, want improved", rise.Class)
	}
	if tail := resultFor(t, cmp, "pkg.BenchmarkServeTail"); tail.Class != Regressed {
		t.Errorf("p99-ms blow-up classified %v, want regressed", tail.Class)
	}
}

// TestCompareRateFromZero: a rate appearing from a zero base is an
// improvement, not the 0→nonzero regression rule used for counts.
func TestCompareRateFromZero(t *testing.T) {
	base := rateSamples("pkg.BenchmarkServe", 0, 10)
	run := rateSamples("pkg.BenchmarkServe", 50, 10)
	cmp := Compare(run, base, DefaultTolerances())
	r := resultFor(t, cmp, "pkg.BenchmarkServe")
	if r.Class != Improved {
		t.Fatalf("0→50 req/s classified %v, want improved", r.Class)
	}
}

// TestCompareZeroBaselineAllocs: a benchmark at 0 allocs/op in the base
// that allocates in the change has no relative delta; it must still
// regress.
func TestCompareZeroBaselineAllocs(t *testing.T) {
	base := samplesOf("pkg.BenchmarkTight", 0, 1000)
	run := samplesOf("pkg.BenchmarkTight", 1, 1000)
	cmp := Compare(run, base, DefaultTolerances())
	r := resultFor(t, cmp, "pkg.BenchmarkTight")
	if r.Class != Regressed {
		t.Fatalf("0→1 allocs/op classified %v, want regressed", r.Class)
	}
}

func TestToleranceOverride(t *testing.T) {
	base := samplesOf("pkg.BenchmarkHot", 2, 1000)
	run := samplesOf("pkg.BenchmarkHot", 2, 1100) // +10%
	tol := DefaultTolerances()
	tol["ns/op"] = 0.05
	cmp := Compare(run, base, tol)
	if r := resultFor(t, cmp, "pkg.BenchmarkHot"); r.Class != Regressed {
		t.Errorf("+10%% vs 5%% tolerance classified %v, want regressed", r.Class)
	}
}
