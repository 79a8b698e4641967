package service

import (
	"time"

	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
)

// Status is a job's position in its lifecycle.
type Status string

// The job lifecycle states. Jobs move pending -> running -> done|failed.
const (
	StatusPending Status = "pending"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// job is the service's internal mutable record for one submitted trace.
// All fields are guarded by Service.mu after construction.
type job struct {
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
	// quota while the job is live.
	bytes int64
	// quotaHeld records that the tenant's job slot and bytes are reserved
	// and not yet released, so every terminal path (finish, shed, remote
	// completion) releases exactly once.
	quotaHeld bool

	// enqueued is when the job entered the queue (zero for restored
	// history); the queue-wait histogram observes pickup minus this.
	enqueued time.Time
	// ckpt is the job's freshest analyzer-state checkpoint: attached at
	// recovery from the spool, advanced as the replay writes new ones,
	// cleared when the job reaches a terminal state. A watchdog retry
	// resumes from it.
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

// traceparent is the job's own trace context for the journal, "" when the
// job has none.
func (j *job) traceparent() string {
	if !j.tc.Valid() {
		return ""
	}
	return j.tc.Traceparent()
}

// viewLocked snapshots the job; the caller must hold Service.mu.
func (j *job) viewLocked() JobView {
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
