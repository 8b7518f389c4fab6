// Package obs is the observability subsystem for the OPC/ILT pipeline:
// a process-wide metrics registry (counters, gauges, histograms with
// atomic hot paths), span tracing with Chrome trace-event JSON export
// (loadable in chrome://tracing and Perfetto), and a structured
// per-iteration telemetry stream (JSONL).
//
// The package is stdlib-only, mirroring internal/analysis and
// internal/perf: the instrumentation layer must never acquire
// dependencies the pipeline itself does not have.
//
// # Cost model
//
// Instrumentation is disabled by default and every entry point is
// nil-safe: with no State installed, obs.Start returns a zero Span,
// obs.C / obs.G / obs.H return nil handles whose methods no-op, and
// Scope.Emit drops the record. The disabled path is one atomic pointer
// load plus a branch — zero allocations, no time.Now() call — so hot
// loops (FFT kernels, rasterisation, optimizer steps) carry their
// instrumentation unconditionally. internal/obs/alloc_test.go pins the
// 0 allocs/op contract and the benchdiff gate pins the latency.
//
// # Usage
//
//	st := obs.NewState(obs.Config{Tracing: true})
//	obs.Setup(st)                     // install process-wide
//	defer obs.Setup(nil)
//
//	sp := obs.Start("litho.aerial")   // span on the main track
//	... work ...
//	sp.End()
//
//	obs.C("opc.iterations").Inc()
//	obs.G("bigopc.workers.busy").Add(1)
//	obs.ScopeFromContext(ctx).Emit(&obs.OPCIter{Iter: it, Loss: loss})
//
//	st.Tracer.WriteJSON(f)            // chrome://tracing file
//
// # Scoped telemetry
//
// Long-running processes (cardopcd) run several units of work
// concurrently over the one process-global state. An obs.Scope labels
// everything emitted through it with the unit's identity (job id), so
// the telemetry stream stays attributable: records gain a "job" field,
// trace spans a job arg, and counters can additionally feed a per-job
// overlay registry. Scopes thread through the layers via contexts
// (ContextWithScope / ScopeFromContext); the zero Scope is the ambient
// no-label scope, so CLI paths are unchanged. See scope.go.
package obs

import (
	"sync/atomic"
)

// State bundles the three observability sinks. Any field may be nil:
// a nil Tracer records no spans, a nil Registry no metrics, a nil
// Telemetry no records. Span timing is shared — one Span feeds both
// the tracer and the duration histogram when both are present.
type State struct {
	Metrics   *Registry
	Tracer    *Tracer
	Telemetry *Telemetry
}

// Config selects which sinks NewState builds.
type Config struct {
	// Metrics enables the counter/gauge/histogram registry.
	Metrics bool
	// Tracing enables span collection for trace-event export.
	Tracing bool
}

// NewState builds a State with the selected sinks. Telemetry needs a
// destination writer, so it is attached separately (see NewTelemetry).
func NewState(cfg Config) *State {
	st := &State{}
	if cfg.Metrics {
		st.Metrics = NewRegistry()
	}
	if cfg.Tracing {
		st.Tracer = NewTracer()
	}
	return st
}

// global is the installed process-wide state (nil = disabled).
var global atomic.Pointer[State]

// Setup installs st as the process-wide observability state. Pass nil
// to disable instrumentation again. Safe for concurrent use, though
// runs typically install once after flag parsing.
func Setup(st *State) { global.Store(st) }

// Metrics returns the process-wide registry, or nil when disabled.
func Metrics() *Registry {
	st := global.Load()
	if st == nil {
		return nil
	}
	return st.Metrics
}

// C returns the process-wide counter with the given name (nil when
// metrics are disabled; nil counters no-op).
func C(name string) *Counter { return Metrics().Counter(name) }

// G returns the process-wide gauge with the given name (nil when
// metrics are disabled; nil gauges no-op).
func G(name string) *Gauge { return Metrics().Gauge(name) }

// H returns the process-wide duration histogram with the given name
// (nil when metrics are disabled; nil histograms no-op).
func H(name string) *Histogram { return Metrics().Histogram(name, TimeBucketsMS) }
