package obs

import "context"

// Scope attributes telemetry to one unit of work — a cardopcd job, a
// bigopc tile batch, an experiment run. It is a tiny value handle
// carrying a label set (today: the job id) plus an optional private
// metrics registry; instrumented code holds the scope for the duration
// of the work and emits through it, so records stay attributable even
// when several units run concurrently over the same process-global
// telemetry stream.
//
// The zero Scope is the ambient scope: it behaves exactly like the
// package-level Emit/C/G/H against the process-global state, with no
// job label. Code that is never run under a scope (the one-shot CLIs)
// keeps its current behaviour without changes.
//
// # Cost model
//
// Scope methods keep the PR 4 contract: the disabled path is one
// atomic pointer load plus a branch, zero allocations (pinned by
// alloc_test.go). Scopes deliberately do NOT capture the *State at
// construction — every emit re-reads the global, so Setup/teardown in
// tests and CLIs behaves identically under scoped and ambient calls.
// Hot loops hoist the scope lookup (ScopeFromContext) out of the loop,
// the same discipline obsguard enforces for Enabled() guards.
type Scope struct {
	job string
	reg *Registry // optional per-scope overlay; nil = global only
}

// ScopeFor returns a scope labelled with the given job id.
func ScopeFor(job string) Scope { return Scope{job: job} }

// WithRegistry returns a copy of the scope that additionally records
// Count/SetGauge/Observe into reg — the per-job metrics overlay. The
// overlay is owned by the caller (snapshot it when the work finishes)
// and updates regardless of whether global instrumentation is
// installed; the global registry still receives every update too, so
// process-wide aggregates stay complete.
func (s Scope) WithRegistry(reg *Registry) Scope {
	s.reg = reg
	return s
}

// Emit writes one record to the process-wide telemetry stream, stamped
// with the scope's job label so routing sinks (the cardopcd event hub)
// can attribute it exactly. The ambient scope stamps an empty label,
// clearing any stale attribution on a reused record.
//
//cardopc:noalloc
func (s Scope) Emit(rec Record) {
	st := global.Load()
	if st == nil {
		return
	}
	rec.setJob(s.job)
	st.Telemetry.Emit(rec)
}

// Count adds n to the named counter in the global registry and, when
// the scope carries an overlay, in the overlay too — the per-job
// attribution path for counters (cache hits, iterations) whose global
// aggregates would otherwise be unattributable under concurrent
// executors.
//
//cardopc:noalloc
func (s Scope) Count(name string, n int64) {
	if s.reg != nil {
		s.reg.Counter(name).Add(n)
	}
	C(name).Add(n)
}

// SetGauge stores v into the named gauge, globally and in the overlay.
//
//cardopc:noalloc
func (s Scope) SetGauge(name string, v float64) {
	if s.reg != nil {
		s.reg.Gauge(name).Set(v)
	}
	G(name).Set(v)
}

// Start opens a span on the main track; the scope's job label is
// attached to the trace event when tracing is live (End sees it via
// the span, not a closure, so the disabled path stays allocation-free).
//
//cardopc:noalloc
func (s Scope) Start(name string) Span { return s.StartOn(TrackMain, name) }

// StartOn is Start on an explicit worker track.
//
//cardopc:noalloc
func (s Scope) StartOn(track int, name string) Span {
	st := global.Load()
	if st == nil {
		return Span{}
	}
	sp := st.span(track, name)
	sp.job = s.job
	return sp
}

// scopeKey is the context key ContextWithScope stores under.
type scopeKey struct{}

// ContextWithScope returns a context carrying the scope. Layers that
// already take a context (core.Optimizer.RunContext, bigopc.RunContext,
// ilt.RunContext) recover it with ScopeFromContext — threading
// attribution through existing signatures instead of new parameters.
func ContextWithScope(ctx context.Context, s Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFromContext returns the scope carried by ctx, or the ambient
// scope when none is attached. The lookup walks the context chain —
// hoist it out of hot loops and hold the returned value.
func ScopeFromContext(ctx context.Context) Scope {
	if s, ok := ctx.Value(scopeKey{}).(Scope); ok {
		return s
	}
	return Scope{}
}
