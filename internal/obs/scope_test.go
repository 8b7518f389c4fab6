package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// Job returns the scope's job label ("" for the ambient scope).
func (s Scope) Job() string { return s.job }

// Registry returns the scope's overlay registry (nil when none).
func (s Scope) Registry() *Registry { return s.reg }

// Enabled reports whether emitting through the scope reaches any sink:
// the process-global state, or the scope's own overlay registry.
func (s Scope) Enabled() bool { return s.reg != nil || global.Load() != nil }

// Observe records v into the named duration histogram, globally and in
// the overlay.
func (s Scope) Observe(name string, v float64) {
	if s.reg != nil {
		s.reg.Histogram(name, TimeBucketsMS).Observe(v)
	}
	H(name).Observe(v)
}

// captureRouter retains every routed (job, line) pair.
type captureRouter struct {
	mu    sync.Mutex
	jobs  []string
	lines []string
}

func (c *captureRouter) WriteRecord(job string, line []byte) {
	c.mu.Lock()
	c.jobs = append(c.jobs, job)
	c.lines = append(c.lines, string(line)) // copy: the buffer is reused
	c.mu.Unlock()
}

// TestScopeEmitStampsJob: scoped emission stamps the record's job
// label into the JSON and hands the same label to the router; ambient
// emission clears a stale label on a reused record.
func TestScopeEmitStampsJob(t *testing.T) {
	router := &captureRouter{}
	Setup(&State{Telemetry: NewTelemetryRouter(router)})
	defer Setup(nil)

	rec := &OPCIter{Iter: 7, Loss: 1.5}
	ScopeFor("j-1").Emit(rec)
	ScopeFor("j-2").Emit(rec) // reused record, new scope
	Emit(rec)                 // ambient: label must clear

	if got, want := len(router.lines), 3; got != want {
		t.Fatalf("router saw %d lines, want %d", got, want)
	}
	if router.jobs[0] != "j-1" || router.jobs[1] != "j-2" || router.jobs[2] != "" {
		t.Fatalf("routed jobs = %v, want [j-1 j-2 '']", router.jobs)
	}
	for i, wantJob := range []string{"j-1", "j-2", ""} {
		var decoded struct {
			T    string `json:"t"`
			Job  string `json:"job"`
			Iter int    `json:"iter"`
		}
		if err := json.Unmarshal([]byte(router.lines[i]), &decoded); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if decoded.T != "opc.iter" || decoded.Job != wantJob || decoded.Iter != 7 {
			t.Errorf("line %d = %+v, want job %q", i, decoded, wantJob)
		}
	}
}

// TestScopeOverlayRegistry: Count/SetGauge/Observe reach both the
// overlay and the global registry; the overlay works even with obs
// disabled.
func TestScopeOverlayRegistry(t *testing.T) {
	overlay := NewRegistry()
	sc := ScopeFor("j-9").WithRegistry(overlay)

	// Disabled globally: the overlay still records.
	Setup(nil)
	sc.Count("work.items", 5)
	if got := overlay.Counter("work.items").Value(); got != 5 {
		t.Fatalf("overlay counter = %d with obs disabled, want 5", got)
	}

	// Enabled: both registries move.
	global := NewRegistry()
	Setup(&State{Metrics: global})
	defer Setup(nil)
	sc.Count("work.items", 2)
	sc.SetGauge("work.loss", 3.25)
	sc.Observe("work.ms", 1.5)
	if got := overlay.Counter("work.items").Value(); got != 7 {
		t.Errorf("overlay counter = %d, want 7", got)
	}
	if got := global.Counter("work.items").Value(); got != 2 {
		t.Errorf("global counter = %d, want 2 (only the enabled-phase adds)", got)
	}
	if got := overlay.Gauge("work.loss").Value(); got != 3.25 {
		t.Errorf("overlay gauge = %v, want 3.25", got)
	}
	if got := global.Histogram("work.ms", TimeBucketsMS).Count(); got != 1 {
		t.Errorf("global histogram count = %d, want 1", got)
	}
}

// TestScopeSpanJobArg: a scoped span attaches the job label to its
// trace event.
func TestScopeSpanJobArg(t *testing.T) {
	tr := NewTracer()
	Setup(&State{Tracer: tr})
	defer Setup(nil)

	ScopeFor("j-5").Start("scoped.work").End()
	Start("ambient.work").End()

	if tr.Len() != 2 {
		t.Fatalf("tracer has %d events, want 2", tr.Len())
	}
	byName := map[string][]Arg{}
	tr.mu.Lock()
	for _, e := range tr.events {
		byName[e.name] = e.args
	}
	tr.mu.Unlock()
	foundJob := false
	for _, a := range byName["scoped.work"] {
		if a.Key == "job" && a.Val == "j-5" {
			foundJob = true
		}
	}
	if !foundJob {
		t.Errorf("scoped.work args = %v, want job=j-5", byName["scoped.work"])
	}
	for _, a := range byName["ambient.work"] {
		if a.Key == "job" {
			t.Errorf("ambient span carries job arg %v", a.Val)
		}
	}
}

// TestScopeContextThreading: ContextWithScope/ScopeFromContext round-
// trip, and a bare context yields the ambient scope.
func TestScopeContextThreading(t *testing.T) {
	sc := ScopeFor("j-3").WithRegistry(NewRegistry())
	ctx := ContextWithScope(context.Background(), sc)
	got := ScopeFromContext(ctx)
	if got.Job() != "j-3" || got.Registry() != sc.Registry() {
		t.Errorf("round-trip scope = %+v, want job j-3 with same registry", got)
	}
	ambient := ScopeFromContext(context.Background())
	if ambient.Job() != "" || ambient.Registry() != nil {
		t.Errorf("bare context scope = %+v, want zero", ambient)
	}
}

// TestScopeEnabled: the zero scope follows global state; a scope with
// an overlay is always enabled (the overlay is a live sink).
func TestScopeEnabled(t *testing.T) {
	Setup(nil)
	if (Scope{}).Enabled() {
		t.Error("zero scope enabled with obs disabled")
	}
	if !ScopeFor("j").WithRegistry(NewRegistry()).Enabled() {
		t.Error("overlay scope disabled — the overlay is a sink")
	}
	Setup(&State{})
	defer Setup(nil)
	if !(Scope{}).Enabled() {
		t.Error("zero scope disabled with obs installed")
	}
}

// TestTelemetryRouterConcurrent: concurrent scoped emitters never
// cross-contaminate lines (the encode buffer is shared under the
// telemetry mutex).
func TestTelemetryRouterConcurrent(t *testing.T) {
	router := &captureRouter{}
	Setup(&State{Telemetry: NewTelemetryRouter(router)})
	defer Setup(nil)

	const jobs, per = 8, 50
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sc := ScopeFor(string(rune('a' + j)))
			for i := 0; i < per; i++ {
				sc.Emit(&ILTIter{Iter: i, Loss: float64(j)})
			}
		}(j)
	}
	wg.Wait()

	if len(router.lines) != jobs*per {
		t.Fatalf("router saw %d lines, want %d", len(router.lines), jobs*per)
	}
	for i, line := range router.lines {
		var rec struct {
			Job  string  `json:"job"`
			Loss float64 `json:"loss"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", i, err, line)
		}
		if want := float64(rec.Job[0] - 'a'); rec.Loss != want {
			t.Fatalf("line %d: job %q carries loss %v, want %v — cross-job contamination", i, rec.Job, rec.Loss, want)
		}
		if rec.Job != router.jobs[i] {
			t.Fatalf("line %d: routed under %q but stamped %q", i, router.jobs[i], rec.Job)
		}
	}
}
