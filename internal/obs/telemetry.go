package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// Record is one structured telemetry datum. Kind returns the value of
// the record's "t" discriminator field so streams stay self-describing
// when several record types interleave; Emit stamps it via the
// embedded Tag before marshalling. The Tag also carries the scope's
// job label ("job"), stamped by Scope.Emit, so routing sinks can
// attribute each line without re-parsing it.
type Record interface {
	Kind() string
	setKind(string)
	setJob(string)
	jobID() string
}

// Tag is the "t" discriminator (plus the scope's job label) every
// record embeds.
type Tag struct {
	T string `json:"t"`
	// Job is the emitting scope's job id; empty for ambient emission.
	Job string `json:"job,omitempty"`
}

func (t *Tag) setKind(s string) { t.T = s }
func (t *Tag) setJob(s string)  { t.Job = s }
func (t *Tag) jobID() string    { return t.Job }

// OPCIter is one CardOPC optimizer iteration (core.Optimizer.Step).
type OPCIter struct {
	Tag
	// Iter is the zero-based iteration index.
	Iter int `json:"iter"`
	// Loss is Σ|EPE| over all control-point probes (nm).
	Loss float64 `json:"loss"`
	// MaxMoveNM is the largest control-point displacement applied.
	MaxMoveNM float64 `json:"max_move_nm"`
	// Clamped counts control points clipped by the MaxDrift ball.
	Clamped int `json:"clamped"`
	// Points is the number of control points visited.
	Points int `json:"points"`
	// DurMS is the wall time of the iteration.
	DurMS float64 `json:"dur_ms"`
}

// Kind implements Record.
func (*OPCIter) Kind() string { return "opc.iter" }

// ILTIter is one pixel-ILT gradient step (ilt.Solver.Run).
type ILTIter struct {
	Tag
	// Iter is the zero-based iteration index.
	Iter int `json:"iter"`
	// Loss is the sigmoid-resist L2 loss.
	Loss float64 `json:"loss"`
	// DurMS is the wall time of the iteration.
	DurMS float64 `json:"dur_ms"`
}

// Kind implements Record.
func (*ILTIter) Kind() string { return "ilt.iter" }

// TileDone is one finished bigopc tile.
type TileDone struct {
	Tag
	// Col and Row locate the tile in the layout grid.
	Col int `json:"col"`
	Row int `json:"row"`
	// Shapes is the number of owned shapes corrected.
	Shapes int `json:"shapes"`
	// Worker is the worker index that processed the tile.
	Worker int `json:"worker"`
	// DurMS is the wall time of the tile.
	DurMS float64 `json:"dur_ms"`
}

// Kind implements Record.
func (*TileDone) Kind() string { return "bigopc.tile" }

// Telemetry streams records as JSON Lines: one JSON object per line,
// in emit order. Safe for concurrent emitters.
type Telemetry struct {
	mu    sync.Mutex
	buf   *bufio.Writer
	enc   *json.Encoder
	route RecordRouter // router mode: lines dispatched per record
	line  bytes.Buffer // router mode: reusable encode buffer
}

// RecordRouter receives each finished JSONL line together with the
// emitting scope's job label, so a multiplexing sink (the cardopcd
// event hub) can deliver the line to exactly the unit of work it
// belongs to instead of broadcasting. line is only valid for the
// duration of the call — copy it to retain. Calls are serialised under
// the telemetry mutex and sit on the emit path of every instrumented
// loop, so implementations must never block.
type RecordRouter interface {
	WriteRecord(job string, line []byte)
}

// NewTelemetry wraps w in a buffered JSONL encoder. Call Flush before
// closing the underlying writer.
func NewTelemetry(w io.Writer) *Telemetry {
	buf := bufio.NewWriter(w)
	return &Telemetry{buf: buf, enc: json.NewEncoder(buf)}
}

// NewTelemetryRouter encodes each record into an internal buffer and
// hands the finished line, with the record's job label, to r: the
// live-streaming variant for a sink that routes each record to the unit
// of work it belongs to (the cardopcd event hub). Flush is a no-op. The
// buffer is reused across records; r must copy the line to retain it.
func NewTelemetryRouter(r RecordRouter) *Telemetry {
	t := &Telemetry{route: r}
	t.enc = json.NewEncoder(&t.line)
	return t
}

// Emit appends one record. Nil-safe; marshal errors are dropped (the
// telemetry stream must never fail the run it observes).
//
//cardopc:noalloc
func (t *Telemetry) Emit(rec Record) {
	if t == nil {
		return
	}
	rec.setKind(rec.Kind())
	t.mu.Lock()
	if t.route != nil {
		t.line.Reset()
		if err := t.enc.Encode(rec); err == nil {
			t.route.WriteRecord(rec.jobID(), t.line.Bytes())
		}
		t.mu.Unlock()
		return
	}
	_ = t.enc.Encode(rec) // Encode appends the newline JSONL needs
	t.mu.Unlock()
}

// Flush drains the buffer to the underlying writer. Nil-safe; a no-op
// for router (NewTelemetryRouter) telemetry.
func (t *Telemetry) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buf == nil {
		return nil
	}
	return t.buf.Flush()
}
