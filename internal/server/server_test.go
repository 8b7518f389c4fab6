package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cardopc/internal/obs"
)

// Tests share the process-global obs state that Server.New installs, so
// they run sequentially (no t.Parallel) and each test builds its own
// server + registry.

// testServer boots a Server on an httptest listener and tears both down
// with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.queue.drain()
		s.Close()
	})
	return s, ts
}

// tinySpec is the smallest job that exercises the full clip flow: one
// square target on a 128 px × 8 nm raster, two iterations.
func tinySpec() JobSpec {
	return JobSpec{
		Kind: "clip",
		Targets: [][][2]float64{
			{{480, 480}, {544, 480}, {544, 544}, {480, 544}},
		},
		SizeNM:  1024,
		Grid:    128,
		PitchNM: 8,
		Iters:   2,
	}
}

// slowSpec is tinySpec with enough iterations to still be running when
// the test looks.
func slowSpec() JobSpec {
	s := tinySpec()
	s.Iters = 5000
	return s
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobView, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return v, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitTerminal polls until the job leaves the queue/run states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v := getJob(t, ts, id)
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRunning polls until the executor has picked the job up.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.Status == StatusRunning {
			return
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s reached %s before running", id, v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := testServer(t, Config{})

	v, resp := postJob(t, ts, tinySpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	if v.ID == "" || v.Kind != "clip" {
		t.Fatalf("submit view: %+v", v)
	}

	done := waitTerminal(t, ts, v.ID, 30*time.Second)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s (%s), want done", done.Status, done.Error)
	}
	r := done.Result
	if r == nil {
		t.Fatal("done job has no result")
	}
	if r.ControlPoints <= 0 || r.Iterations != 2 || r.Shapes < 1 {
		t.Fatalf("result: %+v", r)
	}
	if r.EPEProbes <= 0 {
		t.Fatalf("expected EPE probes, got %+v", r)
	}
}

// TestWarmKernelsSharedAcrossJobs is the warm-state acceptance check: a
// second job with the same imaging configuration must not rebuild the
// SOCS kernel sets — litho.build_kernels stays flat across jobs.
func TestWarmKernelsSharedAcrossJobs(t *testing.T) {
	_, ts := testServer(t, Config{})

	v1, _ := postJob(t, ts, tinySpec())
	if w := waitTerminal(t, ts, v1.ID, 30*time.Second); w.Status != StatusDone {
		t.Fatalf("job1 ended %s (%s)", w.Status, w.Error)
	}
	built := obs.C("litho.build_kernels").Value()
	if built == 0 {
		t.Fatal("first job built no kernels — counter not wired?")
	}

	v2, _ := postJob(t, ts, tinySpec())
	if w := waitTerminal(t, ts, v2.ID, 30*time.Second); w.Status != StatusDone {
		t.Fatalf("job2 ended %s (%s)", w.Status, w.Error)
	}
	if after := obs.C("litho.build_kernels").Value(); after != built {
		t.Fatalf("second job rebuilt kernels: %d -> %d", built, after)
	}
}

func TestEventsStreamJSONL(t *testing.T) {
	_, ts := testServer(t, Config{})

	v, _ := postJob(t, ts, tinySpec())
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	// The stream ends when the job finishes; read it all.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no event lines")
	}
	kinds := map[string]int{}
	sawTerminal := false
	for _, line := range lines {
		var rec struct {
			T      string `json:"t"`
			ID     string `json:"id"`
			Status Status `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.T == "" {
			t.Fatalf("line without kind tag: %q", line)
		}
		kinds[rec.T]++
		if rec.T == "job.status" && rec.ID == v.ID && rec.Status.Terminal() {
			sawTerminal = true
		}
	}
	if kinds["job.status"] < 2 {
		t.Fatalf("want running + terminal job.status records, got kinds %v", kinds)
	}
	if kinds["opc.iter"] == 0 {
		t.Fatalf("no opc.iter telemetry routed to the job log; kinds %v", kinds)
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal job.status record")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{})

	for name, spec := range map[string]JobSpec{
		"no layout":      {Kind: "clip"},
		"bad kind":       {Kind: "nope", Case: "V1"},
		"bad case":       {Case: "V99"},
		"bad layer":      {Case: "V1", Layer: "poly"},
		"thin target":    {Targets: [][][2]float64{{{0, 0}, {1, 1}}}},
		"both layouts":   {Case: "V1", Targets: tinySpec().Targets},
		"grid not pow2":  {Case: "V1", Grid: 100},
		"grid too small": {Case: "V1", Grid: 16},
	} {
		if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: got %d, want 400", resp.StatusCode)
	}
}

func TestLithoConfigNormalisedAndValid(t *testing.T) {
	// The server's spec decoder applies the zero-means-default dose
	// contract explicitly: the resolved config carries Dose 1 and passes
	// the strict Validate (which rejects a literal zero dose).
	lcfg := lithoConfig(JobSpec{Kind: "clip", Grid: 256, PitchNM: 8})
	if lcfg.Dose != 1 {
		t.Errorf("resolved dose = %v, want 1", lcfg.Dose)
	}
	if err := lcfg.Validate(); err != nil {
		t.Errorf("resolved config invalid: %v", err)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/v1/jobs/j-999", "/v1/jobs/j-999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: got %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{})

	v, _ := postJob(t, ts, slowSpec())
	waitRunning(t, ts, v.ID)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	done := waitTerminal(t, ts, v.ID, 30*time.Second)
	if done.Status != StatusCancelled {
		t.Fatalf("cancelled job ended %s, want cancelled", done.Status)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})

	v, _ := postJob(t, ts, tinySpec())
	waitTerminal(t, ts, v.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.State != "ready" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m metricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Jobs["done"] < 1 {
		t.Fatalf("metrics jobs: %v", m.Jobs)
	}
	for _, want := range []string{"server.jobs.submitted", "server.jobs.done", "litho.build_kernels"} {
		if m.Metrics.Counters[want] == 0 {
			t.Errorf("metrics missing counter %s: %v", want, m.Metrics.Counters)
		}
	}
	if m.Metrics.Histograms["server.job.ms"].Count < 1 {
		t.Errorf("metrics missing server.job.ms histogram")
	}

	// pprof shares the mux.
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: got %d", resp.StatusCode)
	}
}

func TestListOrderAndEviction(t *testing.T) {
	_, ts := testServer(t, Config{MaxJobs: 2})

	var ids []string
	for i := 0; i < 3; i++ {
		v, _ := postJob(t, ts, tinySpec())
		waitTerminal(t, ts, v.ID, 30*time.Second)
		ids = append(ids, v.ID)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("got %d tracked jobs, want 2 after eviction", len(list.Jobs))
	}
	// The oldest finished job was evicted; order is preserved.
	if list.Jobs[0].ID != ids[1] || list.Jobs[1].ID != ids[2] {
		t.Fatalf("order: %s, %s (want %s, %s)", list.Jobs[0].ID, list.Jobs[1].ID, ids[1], ids[2])
	}
}

func TestBigopcJob(t *testing.T) {
	if testing.Short() {
		t.Skip("bigopc job is seconds-long")
	}
	_, ts := testServer(t, Config{})

	// Four squares spread over a 6 µm field, forcing a multi-tile run.
	var targets [][][2]float64
	for _, at := range [][2]float64{{1000, 1000}, {1000, 4600}, {4600, 1000}, {4600, 4600}} {
		targets = append(targets, [][2]float64{
			{at[0], at[1]}, {at[0] + 80, at[1]}, {at[0] + 80, at[1] + 80}, {at[0], at[1] + 80},
		})
	}
	spec := JobSpec{
		Kind:    "bigopc",
		Targets: targets,
		SizeNM:  6000,
		Iters:   2,
		TileNM:  3000,
		HaloNM:  400,
	}
	v, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitTerminal(t, ts, v.ID, 120*time.Second)
	if done.Status != StatusDone {
		t.Fatalf("bigopc job ended %s (%s)", done.Status, done.Error)
	}
	if done.Result == nil || done.Result.Tiles < 2 || done.Result.Shapes < 4 {
		t.Fatalf("result: %+v", done.Result)
	}
}

func TestILTJob(t *testing.T) {
	if testing.Short() {
		t.Skip("ilt job runs the pixel solver")
	}
	_, ts := testServer(t, Config{})

	spec := tinySpec()
	spec.Kind = "ilt"
	v, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitTerminal(t, ts, v.ID, 60*time.Second)
	if done.Status != StatusDone {
		t.Fatalf("ilt job ended %s (%s)", done.Status, done.Error)
	}
	r := done.Result
	if r == nil || r.Iterations != spec.Iters || r.ILTLoss <= 0 {
		t.Fatalf("result: %+v", r)
	}
	// Two descent iterations leave a printable mask: the L2 distance to
	// target stays bounded by the raster size rather than blowing up.
	if r.L2Px < 0 || r.L2Px >= spec.Grid*spec.Grid {
		t.Errorf("L2Px = %d out of range for a %dpx grid", r.L2Px, spec.Grid)
	}
}

func TestJobViewJSONShape(t *testing.T) {
	// The wire shape is consumed by the CI smoke's jq assertions — keep
	// the key names stable.
	v := JobView{ID: "j-1", Kind: "clip", Status: StatusDone}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id"`, `"kind"`, `"status"`, `"submitted_at"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("JobView JSON lacks %s: %s", key, raw)
		}
	}
	if bytes.Contains(raw, []byte(`"result"`)) {
		t.Errorf("nil result should be omitted: %s", raw)
	}
}
