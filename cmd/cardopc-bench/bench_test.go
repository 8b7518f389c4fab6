package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cardopc/internal/exp"
	"cardopc/internal/fit"
	"cardopc/internal/layout"
	"cardopc/internal/litho"
	"cardopc/internal/mrc"
)

// The benchmark's clip flow and evaluation must be the flow the paper
// tables run: its CardOPC numbers equal Table I's CardOPC row exactly.
func TestEvaluationMatchesTable1(t *testing.T) {
	tab := exp.Table1(exp.Options{GridSize: 128, PitchNM: 16, Iterations: 4, Clips: 1})
	var want *exp.Row
	for i, r := range tab.Rows {
		if r.Method == "CardOPC" {
			want = &tab.Rows[i]
		}
	}
	if want == nil {
		t.Fatal("Table I has no CardOPC row")
	}
	w := viaWorkload(false)
	w.grid, w.pitchNM = 128, 16
	cfg := iterations(*w.opc, 4)
	w.opc = &cfg
	got := w.runClip(nil, litho.NewProcess(w.lithoConfig(), litho.DefaultCorners()), 0, layout.ViaClip(1))
	if got.Name != want.Testcase || got.Eval.EPESum != want.EPE || got.Eval.PVB != want.PVB || got.Eval.L2 != want.L2 {
		t.Errorf("benchmark %s: EPE %v PVB %v L2 %v; Table I %s: EPE %v PVB %v L2 %v",
			got.Name, got.Eval.EPESum, got.Eval.PVB, got.Eval.L2, want.Testcase, want.EPE, want.PVB, want.L2)
	}
}

// The benchmark's hybrid flow must be exp.Hybrid with spans around it.
func TestHybridMatchesExp(t *testing.T) {
	w := hybridWorkload(false)
	w.grid, w.pitchNM = 128, 16
	iltCfg := *w.iltCfg
	iltCfg.Iterations = 5
	w.iltCfg = &iltCfg
	proc := litho.NewProcess(w.lithoConfig(), litho.DefaultCorners())
	clip := layout.MetalClip(1)
	want := exp.Hybrid(proc.Nominal, clip.Targets, iltCfg, fit.DefaultConfig(), mrc.HybridRules())
	got := w.runClip(nil, proc, 0, clip)
	if got.MRCFound != want.MRCBefore || got.MRCLeft != want.MRCAfter || got.ILTLoss != want.ILTLoss {
		t.Errorf("benchmark: MRC %d -> %d, ILT loss %v; exp.Hybrid: MRC %d -> %d, ILT loss %v",
			got.MRCFound, got.MRCLeft, got.ILTLoss, want.MRCBefore, want.MRCAfter, want.ILTLoss)
	}
}

// Every workload, tracked in BENCHMARK.json or not, runs at smoke scale,
// prints every metric BENCHMARK.json names with its unit, and in a traced
// run writes a trace Perfetto can load and a per-layer table listing
// every layer.
func TestSmoke(t *testing.T) {
	def, err := loadBenchDef(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	daemon := filepath.Join(dir, "cardopcd")
	if out, err := exec.Command("go", "build", "-o", daemon, "cardopc/cmd/cardopcd").CombinedOutput(); err != nil {
		t.Fatalf("build cardopcd: %v\n%s", err, out)
	}
	for _, w := range def.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload", w.Name)
		}
	}
	for _, wl := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			traceOut := filepath.Join(dir, wl+".json")
			var stdout, stderr bytes.Buffer
			code := runBuffered(func(o, e *bufio.Writer) int {
				return run([]string{"-workload", wl, "-seed", "1", "-short", "-trace", trace,
					"-trace-out", traceOut, "-daemon", daemon}, o, e)
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", wl, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct %v, attempted %d, failed %d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range def.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range def.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", wl, trace, name, m, unit)
				}
				if !strings.Contains(stdout.String(), "\n"+name+" ") {
					t.Errorf("%s trace=%s: metric %s not printed by name", wl, trace, name)
				}
			}
			if trace == "1" {
				checkTrace(t, wl, traceOut, stdout.String())
			}
		}
	}
}

func checkTrace(t *testing.T, workload, path, stdout string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("%s: trace does not parse: %v", workload, err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Errorf("%s: trace has no events", workload)
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Name == "" {
			t.Errorf("%s: malformed trace event %+v", workload, e)
			break
		}
	}
	for _, l := range tableLayers {
		if !strings.Contains(stdout, "\n  "+l+" ") {
			t.Errorf("%s: per-layer table lacks layer %s", workload, l)
		}
	}
}

// runBuffered runs f with buffered writers onto stdout and stderr.
func runBuffered(f func(o, e *bufio.Writer) int, stdout, stderr *bytes.Buffer) int {
	o, e := bufio.NewWriter(stdout), bufio.NewWriter(stderr)
	code := f(o, e)
	o.Flush()
	e.Flush()
	return code
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareFlagsWorseMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, perMin []float64) string {
		var buf bytes.Buffer
		for i, v := range perMin {
			b, err := json.Marshal(record{Workload: "clip_via512", Seed: int64(i), Result: jsonResult{
				Correct: true, Attempted: 1,
				Metrics: map[string]jsonMetric{"clips_per_min": {Value: v, Unit: "1/min"}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	a := write("a.jsonl", []float64{40, 41, 40.5, 40.2, 40.8})
	same := write("same.jsonl", []float64{40.6, 40.1, 40.9, 40.3, 40.4})
	slow := write("slow.jsonl", []float64{20, 21, 20.5, 20.2, 20.8})
	var out bytes.Buffer
	compare := func(a, b string) int {
		return runBuffered(func(o, e *bufio.Writer) int { return runCompare([]string{"-bench", bench, a, b}, o, e) }, &out, &out)
	}
	if code := compare(a, same); code != 0 {
		t.Errorf("same runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(a, slow); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("halved throughput: exit %d\n%s", code, out.String())
	}
}
