package server

import (
	"sync"

	"cardopc/internal/obs"
)

// The event plumbing: cardopcd installs an obs telemetry stream in
// router mode (obs.NewTelemetryRouter), so every record the pipeline
// emits (opc.iter, bigopc.tile, …) plus the server's own job.status
// records arrive here as finished JSONL lines *with the emitting
// scope's job id*. The hub routes each line to exactly the job it
// belongs to; /v1/jobs/{id}/events replays a job's log and live-tails
// it until the job ends.
//
// Attribution is exact at any ExecWorkers: the executor wraps each job
// in an obs.Scope carrying the job id, the scope stamps every record,
// and the router delivers on the stamp — concurrent jobs never see
// each other's telemetry. Records emitted outside any scope (there
// should be none during serving) are counted and dropped rather than
// misattributed.

// JobStatusEvent is the server's own lifecycle record in the stream.
type JobStatusEvent struct {
	obs.Tag
	// ID is the job id the transition belongs to.
	ID string `json:"id"`
	// Status is the state entered (running, done, failed, cancelled).
	Status Status `json:"status"`
	// Err carries the failure reason for failed/cancelled.
	Err string `json:"err,omitempty"`
	// DurMS is the run time for terminal transitions.
	DurMS float64 `json:"dur_ms,omitempty"`
}

// Kind implements obs.Record.
func (*JobStatusEvent) Kind() string { return "job.status" }

// eventHub routes telemetry lines to per-job event logs. It implements
// obs.RecordRouter; obs.Telemetry serialises calls, one complete JSONL
// line per call, attributed by the emitting scope's job id.
type eventHub struct {
	mu   sync.Mutex
	jobs map[string]*jobEvents
}

func newEventHub() *eventHub {
	return &eventHub{jobs: map[string]*jobEvents{}}
}

// register makes a job's event log routable under its id.
func (h *eventHub) register(id string, e *jobEvents) {
	h.mu.Lock()
	h.jobs[id] = e
	h.mu.Unlock()
}

// unregister removes a job's routing entry.
func (h *eventHub) unregister(id string) {
	h.mu.Lock()
	delete(h.jobs, id)
	h.mu.Unlock()
}

// WriteRecord implements obs.RecordRouter: deliver one JSONL line to
// the event log of the job it is stamped with. The line is owned by
// the caller's reusable buffer, so it is copied before retention.
// Lines with no job stamp, or stamped with a job no longer routable,
// are dropped, never misattributed. It sits on the obs emit
// path of every running job, so it must never block — enforced
// transitively through jobEvents.append.
//
//cardopc:nonblocking
func (h *eventHub) WriteRecord(job string, p []byte) {
	h.mu.Lock()
	e := h.jobs[job]
	if e == nil {
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	line := make([]byte, len(p))
	copy(line, p)
	e.append(line)
}

// jobEvents is one job's retained event log plus its live subscribers.
type jobEvents struct {
	mu      sync.Mutex
	lines   [][]byte
	dropped int // lines discarded once the cap was hit
	max     int
	closed  bool
	notify  chan struct{} // closed and replaced on every append/close
}

func newJobEvents(max int) *jobEvents {
	if max <= 0 {
		max = 4096
	}
	return &jobEvents{max: max, notify: make(chan struct{})}
}

// append retains one line (dropping the oldest beyond the cap) and
// wakes subscribers.
func (e *jobEvents) append(line []byte) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if len(e.lines) >= e.max {
		e.lines = e.lines[1:]
		e.dropped++
	}
	e.lines = append(e.lines, line)
	close(e.notify)
	e.notify = make(chan struct{})
	e.mu.Unlock()
}

// close marks the stream finished and wakes subscribers one last time.
func (e *jobEvents) close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.notify)
	}
	e.mu.Unlock()
}

// from returns the lines at absolute index >= off (absolute = including
// dropped lines), the next absolute index, the total number of dropped
// lines so far (so tailers can detect a gap: dropped > off means
// dropped-off lines between off and the returned lines were discarded),
// whether the stream is closed, and a channel that closes on the next
// change.
func (e *jobEvents) from(off int) (lines [][]byte, next, dropped int, closed bool, changed <-chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := off - e.dropped
	if start < 0 {
		start = 0
	}
	if start < len(e.lines) {
		lines = e.lines[start:]
	}
	return lines, e.dropped + len(e.lines), e.dropped, e.closed, e.notify
}

// Len returns the number of retained lines.
func (e *jobEvents) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.lines)
}
