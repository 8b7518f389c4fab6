// Command cardopc-bench is the end-to-end benchmark of the CardOPC
// correction pipeline. One invocation runs one named workload for a
// fixed time, checks the outputs, prints every metric by name with its
// unit and ends with one JSON result line:
//
//	bash cmd/cardopc-bench/run.sh --workload clip_via512 --seed 1 --seconds 55 --trace 0
//
// The offline workloads (clip_via512, clip_metal256, hybrid256) call the
// public functions of core, litho, metrics, mrc, ilt and fit directly;
// serve_mix drives a cardopcd subprocess over HTTP. BENCHMARK.json
// tracks clip_via512 and serve_mix. --trace 1 runs the
// same workload with benchmark-side spans and the program's span
// histograms on, and prints the per-layer metrics instead of the
// end-to-end ones. See README.md for the metric catalogue.
//
// Subcommands:
//
//	cardopc-bench compare A.jsonl B.jsonl   # medians, quartiles, bound check
//	cardopc-bench reference                 # regenerate reference.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procs pins GOMAXPROCS for the benchmark and the daemon it starts: the
// litho worker count fixes the kernel-sum reduction order, so every
// quality number repeats bit for bit, and runs on larger machines
// measure the same thing.
const procs = 2

func main() {
	stdout, stderr := bufio.NewWriter(os.Stdout), bufio.NewWriter(os.Stderr)
	code := run(os.Args[1:], stdout, stderr)
	if err := stdout.Flush(); err != nil && code == 0 {
		code = 1
	}
	_ = stderr.Flush() // nowhere left to report a failing stderr
	os.Exit(code)
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	short    bool
	daemon   string
}

func run(args []string, stdout, stderr *bufio.Writer) int {
	runtime.GOMAXPROCS(procs)
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "reference":
			return runReference(stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("cardopc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var record string
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: clip order, job order and ilt job positions")
	fs.Float64Var(&o.seconds, "seconds", 55, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	fs.BoolVar(&o.short, "short", false, "smoke scale: 1 clip, 2 iterations, 128 px, 1 s service phases")
	fs.StringVar(&o.daemon, "daemon", ".bench_build/cardopcd", "cardopcd binary serve_mix starts")
	fs.StringVar(&record, "record", "", "also append {workload, seed, trace, result} as one JSON line to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "cardopc-bench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "cardopc-bench: -trace takes 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}

	res, err := w.run(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "cardopc-bench:", err)
		return 1
	}
	res.print(stdout)
	if record != "" {
		if err := appendRecord(record, o, res); err != nil {
			fmt.Fprintln(stderr, "cardopc-bench:", err)
			return 1
		}
	}
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "cardopc-bench: check failed:", p)
		}
		return 1
	}
	return 0
}

// workload is one named input set.
type workload struct {
	name string
	run  func(o options, log *bufio.Writer) (*result, error)
}

var workloads = []workload{
	{"clip_via512", offlineRun(viaWorkload)},
	{"clip_metal256", offlineRun(metalWorkload)},
	{"hybrid256", offlineRun(hybridWorkload)},
	{"serve_mix", runServe},
}

// offlineRun runs the offline workload build returns for the run's scale.
func offlineRun(build func(short bool) *offline) func(options, *bufio.Writer) (*result, error) {
	return func(o options, log *bufio.Writer) (*result, error) { return runOffline(build(o.short), o, log) }
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics an untraced run reports; BENCHMARK.json
// gives each its direction and regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"clips_per_min", "1/min"},
	{"clip_s_p50", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	{"iter_ms", "ms"},
	{"litho.aerial_ms", "ms"},
	{"litho.kernel_ms", "ms"},
	{"litho.build_kernels_ms", "ms"},
	{"fft.mask_freq_ms", "ms"},
	{"raster.rasterize_ms", "ms"},
	{"litho.kernel_ffts", "count"},
	{"core.ctrl_points", "count"},
	{"litho.parallel_eff", "ratio"},
	{"core.share", "ratio"},
	{"litho.share", "ratio"},
	{"fft.share", "ratio"},
	{"raster.share", "ratio"},
	{"ilt.share", "ratio"},
	{"mrc.share", "ratio"},
	{"server.wait_share", "ratio"},
	{"server.coalesced_frac", "ratio"},
}

// result is one run's outcome in the benchmark's output contract.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	values    map[string]float64
	defs      []metricDef
	problems  []string
}

func newResult(trace bool) *result {
	r := &result{Correct: true, values: map[string]float64{}, defs: endToEnd}
	if trace {
		r.defs = perLayer
	}
	return r
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set stores a metric value; a non-finite value fails the run, since
// the result line must carry numbers.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.values[name] = v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json() jsonResult {
	out := jsonResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			// A metric the workload did not produce is a bug in the
			// benchmark, not a measurement.
			panic("cardopc-bench: metric " + d.Name + " not set")
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	return out
}

// print writes one "name value unit" line per metric, then the JSON
// result as the last line.
func (r *result) print(w *bufio.Writer) {
	js := r.json()
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-24s %14.6g %s\n", d.Name, js.Metrics[d.Name].Value, d.Unit)
	}
	b, err := json.Marshal(js)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintln(w, string(b))
}

// record is one line of a -record file.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    bool       `json:"trace"`
	Result   jsonResult `json:"result"`
}

func appendRecord(path string, o options, r *result) error {
	b, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: r.json()})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}

// rssPeakMB reads a process's peak resident set (VmHWM) in MB.
func rssPeakMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/" + pid + "/status")
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
