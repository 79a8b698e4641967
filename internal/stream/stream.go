// Package stream is the ingest half of arbalestd's live analysis sessions:
// a Session consumes the CRC32C-framed trace encoding as a wire protocol
// and drives the analyzer online, while the traced program is still
// running.
//
// A session is sequential replay with the trace still arriving. A client
// ships framed event chunks over one or more ingest requests; each chunk is
// decoded incrementally (trace.PushDecoder), the session checks each
// event's sequence number as it is decoded, and the accepted events go
// straight into the window of the replay driver batch replay uses
// (trace.Replayer), which replays them in small batches as the stream's
// next events — sequential dispatch, the same Seq-derived replay clocks —
// so the findings a session accumulates are byte-identical to
// trace.ReplayDurable over the same events. Findings are readable
// mid-stream with a long-poll cursor; the min-seq dedup in report.Sink
// makes the stream's incremental report list append-only, so a plain
// integer cursor is a stable resume token.
//
// Everything else about a session is its record in the service's one
// table (internal/service), the same record a submitted job has: admission
// and tenant quotas, spans, journal marks, the terminal bookkeeping,
// retention, idle eviction, shutdown and recovery. The owner wires a
// session up with Options and ends it with Stop.
//
// # Durability
//
// With a journal, a session is a journal record like a job's: the frames
// of every batch are appended, as they arrived, to its spool (<id>.trace)
// in one write before the batch is replayed; a resent duplicate is skipped,
// not spooled, so the spool is one header followed by exactly the accepted
// frames. The driver checkpoints the analyzer by batch replay's index-only
// barrier rule, at batch replay's boundaries: after a non-access event,
// once CheckpointEvery events have passed since the last checkpoint. The
// spool is fsynced before each checkpoint, so checkpointed progress never
// outruns replayable bytes. After a crash the owner rebuilds a live session
// from its freshest checkpoint and Refeed re-feeds the spooled suffix; the
// client resumes by asking how many events the session has (View.Events)
// and re-sending from there; duplicate events are skipped by sequence
// number.
//
// Corrupt input — CRC mismatches, torn final frames, sequence gaps — fails
// the session with a *trace.CorruptionError and never panics or wedges the
// accept loop.
package stream

import (
	"errors"
	"log/slog"
	"time"

	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/tools"
)

// The session errors, mapped to HTTP statuses by the service (503
// draining, 409 busy/terminal, 413 budget).
var (
	ErrDraining = errors.New("stream: shutting down")
	ErrBusy     = errors.New("stream: an ingest request is already attached")
	ErrTerminal = errors.New("stream: session already terminal")
	ErrBudget   = errors.New("stream: byte budget exhausted")
)

// Status is a session's position in its lifecycle. Sessions are born live
// and reach exactly one terminal state: done (client closed cleanly),
// failed (corrupt input, limits, analyzer panic, abort), or evicted (the
// server ended it). The values match the journal's statuses so a recovered
// session's status round-trips unchanged.
type Status string

// The session lifecycle states.
const (
	StatusLive    Status = Status(journal.StatusLive)
	StatusDone    Status = Status(journal.StatusDone)
	StatusFailed  Status = Status(journal.StatusFailed)
	StatusEvicted Status = Status(journal.StatusEvicted)
)

// Options wire a session to the service that owns its record.
type Options struct {
	// Journal, when non-nil, spools the accepted frames and takes the
	// checkpoints.
	Journal *journal.Journal
	// CheckpointEvery, with a Journal, checkpoints the analyzer roughly
	// every this many events at the next non-access boundary — the same
	// index-only rule as trace.ReplayDurable. 0 disables.
	CheckpointEvery uint64
	// MaxBytes is the wire-byte budget: a chunk past it fails Feed with
	// ErrBudget (<= 0 is unlimited).
	MaxBytes int64
	// MaxEvents caps the events the session applies (<= 0 is unlimited).
	MaxEvents int
	// Metrics receives the ingest counters; required.
	Metrics *Metrics
	// Logger receives the session's log lines; required.
	Logger *slog.Logger
	// Charge, when non-nil, reserves each chunk's bytes against the owner's
	// quota before the chunk advances anything; an error refuses the chunk
	// and leaves the session live, for the client to retry.
	Charge func(n int64) error
	// Fail, when non-nil, is called outside the session's lock when ingest
	// fails the session — corrupt input, a limit, an analyzer panic, a
	// spool write — so the owner ends its record.
	Fail func(err error)
}

// View is the immutable, JSON-serializable snapshot of a session served by
// the HTTP API.
type View struct {
	ID     string `json:"id"`
	Tool   string `json:"tool"`
	Status Status `json:"status"`
	// Tenant is the identity the session was admitted under.
	Tenant string `json:"tenant,omitempty"`
	// Events is the number of events applied so far — the sequence number a
	// resuming client should send next.
	Events   uint64 `json:"events"`
	Bytes    int64  `json:"bytes"`
	Findings int    `json:"findings"`
	// ResumedFrom, when nonzero, is the checkpoint boundary this session was
	// restored from after a daemon restart.
	ResumedFrom uint64         `json:"resumedFrom,omitempty"`
	Created     time.Time      `json:"created"`
	Finished    *time.Time     `json:"finished,omitempty"`
	Error       string         `json:"error,omitempty"`
	Result      *tools.Summary `json:"result,omitempty"`
	// TraceID names the session's distributed trace at GET /v1/traces/{id};
	// empty when the session is untraced.
	TraceID string `json:"traceId,omitempty"`
}

// FindingsView is one page of a session's findings: everything from the
// Since cursor on, plus the Next cursor to poll from. Reports are in
// replay-clock order and the list only appends while the session lives, so
// cursors from earlier reads stay valid.
type FindingsView struct {
	ID      string          `json:"id"`
	Status  Status          `json:"status"`
	Since   int             `json:"since"`
	Next    int             `json:"next"`
	Reports []report.Report `json:"reports"`
}

// Progress is how far a session has come: the ingest half of its View,
// plus the boundary of its last checkpoint (0 before the first).
type Progress struct {
	Events      uint64
	Bytes       int64
	Findings    int
	ResumedFrom uint64
	Checkpoint  uint64
}
