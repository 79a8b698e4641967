package service

import (
	"time"

	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
)

// Status is a record's position in its lifecycle.
type Status string

// The job lifecycle states. Jobs move pending -> running -> done|failed.
// A stream session moves live -> done|failed|evicted (stream.Status).
const (
	StatusPending Status = "pending"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"

	statusLive    = Status(stream.StatusLive)
	statusEvicted = Status(stream.StatusEvicted)
)

// record is the service's internal mutable record for one analysis: a
// submitted trace (a job) or a stream session, whose trace is still
// growing while it is live. Both kinds live in one table and share one
// lifecycle: admission, spans, quota release, journal marks, finish,
// retention and recovery. All fields are guarded by Service.mu after
// construction, except that a session's sess, span and tc are assigned
// before it is published and never reassigned.
type record struct {
	id        string
	tool      string
	key       string // idempotency key, "" if none
	status    Status
	submitted time.Time
	started   time.Time
	finished  time.Time
	events    int
	tr        *trace.Trace // released (nil) once the job finishes
	result    *tools.Summary
	wall      time.Duration
	errMsg    string

	// tenant is the canonical identity the job was admitted under; it keys
	// the weighted-fair queue and the per-tenant metric labels.
	tenant string
	// deadline, when non-zero, is the client's completion deadline; a job
	// still queued past it is shed at dequeue instead of replayed.
	deadline time.Time
	// bytes is the upload's wire size, charged against the tenant's byte
	// quota while the job is live; for a session, the bytes it accepted,
	// known once it stops.
	bytes int64
	// quotaHeld records that the tenant's job or stream slot and bytes are
	// reserved and not yet released, so every terminal path (finish, shed,
	// remote completion, a session's close, failure or eviction) releases
	// exactly once.
	quotaHeld bool

	// enqueued is when the job entered the queue (zero for restored
	// history); the queue-wait histogram observes pickup minus this.
	enqueued time.Time
	// ckpt is the job's freshest analyzer-state checkpoint: attached at
	// recovery from the spool, advanced as the replay writes new ones,
	// cleared when the job reaches a terminal state. A lease rescheduled
	// within this life resumes from it.
	ckpt *trace.Checkpoint
	// span is the job's trace tree, built under Service.mu and served as
	// a Clone. Nil for jobs restored from the journal as history.
	span *telemetry.Span
	// tc is the job's distributed trace context, stamped at admission
	// (zero for untraced, unsampled, or recovered jobs) and immutable once
	// the job is published.
	tc telemetry.TraceContext
	// leaseSpans maps fencing token -> the "lease" child span opened when
	// the coordinator granted that lease; worker span shipments merge under
	// the entry matching their token.
	leaseSpans map[uint64]*telemetry.Span

	// settled is set once a finished record's terminal mark is journaled:
	// retention takes only settled records, so a mark never re-creates the
	// meta file of a record already evicted.
	settled bool

	// sess is a stream session's ingest; nil for a job. A session's span is
	// nil when it is untraced, and ingest is its open "ingest" span while a
	// request is attached.
	sess   *stream.Session
	ingest *telemetry.Span
}

// JobView is the immutable, JSON-serializable snapshot of a job that the
// service's accessors and HTTP API return.
type JobView struct {
	ID        string         `json:"id"`
	Tool      string         `json:"tool"`
	Tenant    string         `json:"tenant,omitempty"`
	Status    Status         `json:"status"`
	Submitted time.Time      `json:"submitted"`
	Deadline  *time.Time     `json:"deadline,omitempty"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	Events    int            `json:"events"`
	WallNanos int64          `json:"wallNanos,omitempty"`
	Error     string         `json:"error,omitempty"`
	Result    *tools.Summary `json:"result,omitempty"`
	// Trace is the job's span tree (nil for jobs recovered as history).
	Trace *telemetry.Span `json:"trace,omitempty"`
	// TraceID is the job's distributed trace id, usable against
	// GET /v1/traces/{id}; empty for untraced or unsampled jobs.
	TraceID string `json:"traceId,omitempty"`
}

// traceparent is the record's own trace context for the journal, "" when
// it has none.
func (j *record) traceparent() string {
	if !j.tc.Valid() {
		return ""
	}
	return j.tc.Traceparent()
}

// viewLocked snapshots a job; the caller must hold Service.mu.
func (j *record) viewLocked() JobView {
	v := JobView{
		ID:        j.id,
		Tool:      j.tool,
		Tenant:    j.tenant,
		Status:    j.status,
		Submitted: j.submitted,
		Events:    j.events,
		WallNanos: int64(j.wall),
		Error:     j.errMsg,
		Result:    j.result,
		Trace:     j.span.Clone(),
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		v.Deadline = &t
	}
	if j.span != nil {
		v.TraceID = j.span.TraceID
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// streamViewLocked snapshots the record half of a session's view: all but
// the ingest progress, which viewOf adds. The caller must hold Service.mu.
func (j *record) streamViewLocked() stream.View {
	v := stream.View{
		ID:      j.id,
		Tool:    j.tool,
		Status:  stream.Status(j.status),
		Tenant:  j.tenant,
		Created: j.submitted,
		Error:   j.errMsg,
		Result:  j.result,
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.span != nil {
		v.TraceID = j.span.TraceID
	}
	return v
}
