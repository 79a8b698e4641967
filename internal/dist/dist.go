// Package dist splits arbalestd into a fault-tolerant coordinator/worker
// fleet.
//
// The coordinator owns everything durable — job admission, the write-ahead
// journal, results — and leases analysis work to N remote workers over
// HTTP. Workers are expected to die: a lease lasts one TTL and stays alive
// only while the worker heartbeats; when heartbeats stop, the coordinator
// expires the lease and reschedules the job onto the next worker, which
// resumes from the freshest epoch-barrier checkpoint the dead worker
// streamed back. Because checkpoints are taken at epoch barriers
// (trace.ReplayDurable), a resumed replay produces findings byte-identical
// to an uninterrupted single-process run — the Theorem 1
// commutativity argument is per-epoch, so a handoff at an epoch boundary
// changes which machine applies each epoch but not the analysis (DESIGN.md
// §5.8).
//
// # Fencing
//
// Every lease carries a fencing token, monotone per job and write-ahead
// persisted (journal.FleetLog) before the grant. Every worker write —
// heartbeat, checkpoint, result — quotes its token, and the coordinator
// accepts a write only from the holder of the job's current lease with the
// exact current token. A partitioned worker that comes back after its lease
// expired is a zombie: its delayed writes quote a stale token, are rejected
// with 409, and are counted (arbalestd_fleet_fenced_writes_total), so a
// rescheduled job can never be corrupted by its previous owner. Tokens
// survive coordinator restarts, so the guarantee holds across the
// coordinator's own crashes too.
//
// # Degradation
//
// The coordinator keeps no queue of its own. Jobs wait in the service's
// weighted-fair queue, under its bound, shedding and deadlines, and a pool
// worker of the service hands each one it dequeues to the next lease poll
// (Coordinator.Handoff). With no live worker and no restart grace running,
// the pool worker runs the job itself instead, so a coordinator whose fleet
// is gone keeps working like a standalone arbalestd: distribution is an
// optimization, never a requirement.
package dist

import (
	"encoding/json"
	"errors"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// JobSpec identifies one leasable analysis job.
type JobSpec struct {
	// ID is the job's service identifier ("job-N").
	ID string `json:"id"`
	// Tool is the analyzer to run (tools.New name).
	Tool string `json:"tool"`
	// Events is the trace length, for progress accounting.
	Events int `json:"events"`
	// Stats asks the worker to collect analyzer-level telemetry, the
	// daemon's -analyzer-stats setting, so a remote result carries the same
	// stats block as an inline one.
	Stats bool `json:"stats,omitempty"`
	// ReplayTimeout is the daemon's -timeout: it bounds the lease's replay
	// as it bounds an inline one (0 = unlimited). It travels in
	// nanoseconds, so a bound under a millisecond still holds.
	ReplayTimeout time.Duration `json:"replayTimeoutNanos,omitempty"`
}

// Backend is the coordinator's seam into the job engine; *service.Service
// implements it. The coordinator owns the lease table; the backend owns the
// job queue, the job store, the journal, and the metrics.
type Backend interface {
	// MarkJobRunning transitions the job to running state on behalf of a
	// remote worker, journaling the transition. It returns false if the job
	// no longer exists or is already terminal (the lease should be
	// abandoned, not granted).
	MarkJobRunning(id, worker string) bool
	// StoreRemoteCheckpoint ingests a checkpoint streamed back by a worker:
	// monotone per job (a stale checkpoint is dropped, not an error) and
	// spooled through the journal so it survives a coordinator restart.
	StoreRemoteCheckpoint(ck *trace.Checkpoint) error
	// CompleteRemote records a remote job's terminal state exactly once:
	// errMsg=="" means done with the given summary JSON, otherwise failed.
	// A job already terminal returns an error (the write lost the race).
	CompleteRemote(id, errMsg string, result json.RawMessage) error
	// Requeue puts a job whose lease ended without a result — it expired,
	// or its fencing token could not be written — back at the head of its
	// tenant's line in the job queue.
	Requeue(id string)
	// FreshCheckpoint returns the job's newest ingested checkpoint, nil if
	// none — what a rescheduled worker resumes from.
	FreshCheckpoint(id string) *trace.Checkpoint
	// TraceFramed serializes the job's trace in the CRC-framed wire format
	// for a worker to fetch.
	TraceFramed(id string) ([]byte, error)

	// The remaining methods are the distributed-tracing seam. The
	// coordinator uses them to keep one span tree per job across the fleet:
	// a lease opens a span on the job's trace (whose context the grant
	// carries to the worker), worker span shipments merge under that lease
	// span, and lease expiry, fencing rejections, and results close it out.
	//
	// Everything flowing through them is observability-only: merged spans
	// land in the job's trace tree and the trace store, never in job state,
	// checkpoints, or terminal bookkeeping — which is why span shipping
	// cannot violate lease fencing or exactly-once completion (DESIGN.md
	// §5.9).

	// StartLeaseSpan opens a "lease" span on the job's trace for the grant
	// (worker, token) and returns the traceparent the worker should parent
	// its spans under. Empty means the job is untraced; the grant then
	// carries no context and the worker skips span work entirely.
	StartLeaseSpan(jobID, worker string, token uint64) string
	// MergeLeaseSpans merges a worker's span-tree snapshots under the lease
	// span for (jobID, token). Shipments are idempotent: a span re-shipped
	// with the same span ID replaces its previous snapshot.
	MergeLeaseSpans(jobID string, token uint64, spans []*telemetry.Span)
	// CloseLeaseSpan ends the lease span for (jobID, token); a non-empty
	// errMsg (lease expiry, failed result) marks it failed.
	CloseLeaseSpan(jobID string, token uint64, errMsg string)
	// RecordFenced attaches an error span for a write rejected by the
	// fencing token, so zombie writes are visible in the job's trace.
	RecordFenced(jobID, worker, op string, token uint64)
}

// WorkerInfo is one worker's row in a FleetSnapshot.
type WorkerInfo struct {
	// ID is the worker's self-chosen identity.
	ID string `json:"id"`
	// LastSeen is the worker's most recent contact (register, lease poll,
	// heartbeat, checkpoint, or result).
	LastSeen time.Time `json:"lastSeen"`
	// Live reports whether LastSeen is within the worker TTL.
	Live bool `json:"live"`
	// Leases is how many jobs the worker currently holds.
	Leases int `json:"leases"`
}

// FleetCounters are the coordinator's cumulative dispatch counters,
// snapshotted for /v1/fleet/status.
type FleetCounters struct {
	LeasesGranted   int64 `json:"leasesGranted"`
	LeasesExpired   int64 `json:"leasesExpired"`
	Heartbeats      int64 `json:"heartbeats"`
	FencedWrites    int64 `json:"fencedWrites"`
	JobsRescheduled int64 `json:"jobsRescheduled"`
	JobsInline      int64 `json:"jobsInline"`
}

// FleetSnapshot is the coordinator's point-in-time contribution to
// GET /v1/fleet/status: the worker table, lease pressure, and counters.
// The service adds queue depth and span-derived latencies on top.
type FleetSnapshot struct {
	Workers []WorkerInfo `json:"workers"`
	// Pending is how many jobs pool workers hold for the next lease poll
	// (at most the service's -workers); the rest wait in the job queue.
	Pending  int           `json:"pending"`
	Leased   int           `json:"leased"`
	Counters FleetCounters `json:"counters"`
}

// ErrFenced is the coordinator's verdict on a write quoting a stale or
// foreign fencing token: the sender's lease is gone and the job belongs to
// someone else (or to nobody). Mapped to HTTP 409; permanent, never retried.
var ErrFenced = errors.New("dist: lease fenced: stale or foreign token")

// ErrNoJob marks lease or write requests naming a job the coordinator does
// not hold. Mapped to HTTP 404.
var ErrNoJob = errors.New("dist: no such job")
