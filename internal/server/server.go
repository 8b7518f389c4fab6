// Package server is the cardopcd service core: a persistent OPC daemon
// that accepts clip and bigopc correction jobs over HTTP/JSON, runs
// them through a bounded work queue with per-job deadlines and panic
// isolation, and keeps the expensive state — SOCS kernel sets, FFT
// plans, the fft scratch pools — warm across requests. Cold-start work
// that a CLI run pays on every invocation is paid here once per
// distinct imaging configuration.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a JobSpec; 202 + id, 429 when full
//	GET    /v1/jobs             list tracked jobs
//	GET    /v1/jobs/{id}        poll status/result
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events JSONL event stream (live tail)
//	GET    /healthz             readiness; flips to 503 "draining" on SIGTERM
//	GET    /metrics             Prometheus text-format exposition
//	GET    /metrics.json        server state + obs registry snapshot (JSON)
//	GET    /debug/pprof/…       net/http/pprof (shared mux, obs.RegisterDebug)
//	GET    /debug/vars          expvar bridge
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cardopc/internal/litho"
	"cardopc/internal/obs"
)

// Config tunes the daemon.
type Config struct {
	// QueueDepth bounds the submission queue (default 64). A full queue
	// answers 429 + Retry-After.
	QueueDepth int
	// ExecWorkers is the number of concurrent job executors (default 2).
	// Telemetry stays attributable per job at any worker count: every
	// record is stamped with its job id by the executor's obs.Scope and
	// routed on the stamp. Each job still fans out across cores inside
	// litho, so workers trade per-job latency for queue throughput.
	ExecWorkers int
	// JobTimeout is the default per-job deadline (default 5 min).
	JobTimeout time.Duration
	// MaxEvents caps the retained event lines per job (default 4096).
	MaxEvents int
	// MaxJobs caps the tracked-job table; the oldest finished jobs are
	// evicted beyond it (default 1024).
	MaxJobs int
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ExecWorkers <= 0 {
		c.ExecWorkers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 4096
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// Server is the daemon core. Create with New, expose via Handler, shut
// down with Drain + Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue *jobQueue
	procs *litho.ProcessCache
	hub   *eventHub
	state *obs.State

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing and eviction
	nextID int64

	started time.Time
}

// New builds the server, starts its executors and installs the
// process-wide observability state (metrics registry + telemetry stream
// feeding the event hub). One Server per process: Close restores the
// disabled obs state.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		queue:   newJobQueue(cfg.QueueDepth),
		procs:   litho.NewProcessCache(),
		hub:     newEventHub(),
		jobs:    map[string]*Job{},
		started: time.Now(),
	}
	s.state = &obs.State{
		Metrics:   obs.NewRegistry(),
		Telemetry: obs.NewTelemetryRouter(s.hub),
	}
	obs.Setup(s.state)

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.PromHandler())
	s.mux.HandleFunc("GET /metrics.json", s.handleMetrics)
	obs.RegisterDebug(s.mux)

	s.queue.start(cfg.ExecWorkers, s.execute)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Warm pre-builds the kernel set for one imaging configuration, so the
// first job does not pay cold-start either. Called by cardopcd at boot
// for the default raster.
func (s *Server) Warm(cfg litho.Config) { s.procs.Get(cfg, litho.DefaultCorners()) }

// Drain stops accepting jobs (submits answer 503, healthz flips to
// draining) and waits for everything already accepted to finish, up to
// ctx's deadline — after which the in-flight jobs' contexts are
// cancelled and the wait resumes until they unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.queue.drain()
	if err := s.queue.wait(ctx); err == nil {
		return nil
	}
	// Deadline hit: cancel stragglers and wait for the executors to
	// observe the cancellation.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.Cancel()
	}
	s.mu.Unlock()
	return s.queue.wait(context.Background())
}

// Close tears the observability state down. Call after Drain.
func (s *Server) Close() {
	obs.Setup(nil)
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.queue.isDraining() }

// submit validates, registers and enqueues one job.
func (s *Server) submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSpec, err)
	}
	s.mu.Lock()
	s.nextID++
	j := &Job{
		id:        fmt.Sprintf("j-%d", s.nextID),
		spec:      spec,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		events:    newJobEvents(s.cfg.MaxEvents),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()

	if err := s.queue.enqueue(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == j.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		obs.C("server.jobs.rejected").Inc()
		return nil, err
	}
	obs.C("server.jobs.submitted").Inc()
	return j, nil
}

// evictLocked drops the oldest finished jobs beyond the cap. Callers
// hold s.mu.
func (s *Server) evictLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if s.jobs[id].statusNow().Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the table run over the cap
		}
	}
}

// job looks a job up.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// --- HTTP handlers ---

var errBadSpec = fmt.Errorf("invalid job spec")

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorJSON is the error body shape.
type errorJSON struct {
	Error string `json:"error"`
}

// maxSpecBytes caps a job-spec request body. The largest built-in clip
// or Table III tile is about 1.4 KB as an inline spec, so the cap leaves
// room for large inline layouts while bounding what one request can make
// the daemon buffer.
const maxSpecBytes = 8 << 20

// handleSubmit decodes a job spec strictly: an unknown field (a typo such
// as "iter" for "iters" would otherwise silently run the defaults) is a
// 400 naming it, and a body over maxSpecBytes is a 413.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorJSON{Error: fmt.Sprintf("job spec over %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad JSON: " + err.Error()})
		return
	}
	j, err := s.submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.view())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "no such job"})
		return
	}
	if j.Cancel() {
		obs.C("server.jobs.cancel_requests").Inc()
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleEvents streams the job's JSONL event log: replay, then live
// tail until the job reaches a terminal state or the client goes away.
// When the retention cap discarded lines the client would have seen —
// replay starting before the retained window, or a slow tailer falling
// behind a fast producer — one synthetic events.dropped record with
// the gap size is emitted in their place, so consumers can tell a
// trimmed stream from a complete one.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		lines, next, dropped, closed, changed := j.events.from(off)
		if gap := dropped - off; gap > 0 {
			if _, err := fmt.Fprintf(w, "{\"t\":\"events.dropped\",\"job\":%q,\"count\":%d}\n", j.id, gap); err != nil {
				return
			}
		}
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		off = next
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// healthJSON is the /healthz body.
type healthJSON struct {
	State      string  `json:"state"`
	QueueDepth int     `json:"queue_depth"`
	Running    float64 `json:"running"`
	UptimeMS   float64 `json:"uptime_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{
		State:      "ready",
		QueueDepth: s.queue.depth(),
		Running:    obs.G("server.jobs.running").Value(),
		UptimeMS:   time.Since(s.started).Seconds() * 1e3,
	}
	status := http.StatusOK
	if s.Draining() {
		h.State = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// metricsJSON is the /metrics.json body: server-level state plus the
// full obs registry snapshot (the same data the expvar bridge exposes,
// shaped for the CI smoke and cmd/cardopc-bench's serve_mix workload;
// scrapers use the Prometheus exposition at /metrics instead).
type metricsJSON struct {
	State      string         `json:"state"`
	QueueDepth int            `json:"queue_depth"`
	Jobs       map[string]int `json:"jobs"`
	UptimeMS   float64        `json:"uptime_ms"`
	Metrics    obs.Snapshot   `json:"metrics"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byStatus := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byStatus[string(j.statusNow())]++
	}
	s.mu.Unlock()
	state := "ready"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, metricsJSON{
		State:      state,
		QueueDepth: s.queue.depth(),
		Jobs:       byStatus,
		UptimeMS:   time.Since(s.started).Seconds() * 1e3,
		Metrics:    obs.Metrics().Snapshot(),
	})
}
