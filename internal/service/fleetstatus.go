// Federated fleet status: GET /v1/fleet/status aggregates per-worker
// liveness, lease and fencing counters, queue depths, and span-derived job
// latencies into one view. In coordinator mode the worker table comes from
// the attached coordinator; in standalone mode the worker table is empty
// and the in-process worker pool is reported as what it is, a pool, so
// dashboards and the arbalest -fleet-status client work against any role.
package service

import (
	"context"
	"net/http"
	"sort"

	"repro/internal/dist"
)

// Coordinator is the fleet seam of the service; *dist.Coordinator
// implements it.
type Coordinator interface {
	// Handoff offers a job the pool dequeued to the fleet. True means the
	// fleet dealt with it; false means the pool worker runs it (see
	// dist.Coordinator.Handoff). ctx is canceled when Shutdown begins.
	Handoff(ctx context.Context, spec dist.JobSpec) bool
	// FleetSnapshot supplies the worker table for GET /v1/fleet/status.
	FleetSnapshot() dist.FleetSnapshot
}

// AttachCoordinator makes the pool offer every job it dequeues to c and
// wires c into GET /v1/fleet/status. Call it before Start (the daemon does,
// right after building the coordinator).
func (s *Service) AttachCoordinator(c Coordinator) {
	s.mu.Lock()
	s.coord = c
	s.mu.Unlock()
}

// LatencySummary is a percentile digest over recorded trace durations.
type LatencySummary struct {
	// Count is how many closed traces the digest covers.
	Count    int   `json:"count"`
	P50Nanos int64 `json:"p50Nanos"`
	P99Nanos int64 `json:"p99Nanos"`
}

// FleetStatus is the body of GET /v1/fleet/status.
type FleetStatus struct {
	// Role is "coordinator" when a fleet source is wired, else "standalone".
	Role string `json:"role"`
	// Workers is the fleet's worker table, empty on a standalone daemon.
	Workers []dist.WorkerInfo `json:"workers"`
	// Pool is a standalone daemon's in-process worker pool; nil on a
	// coordinator, whose pool feeds the fleet.
	Pool *PoolStatus `json:"pool,omitempty"`
	// Pending and Leased are fleet queue pressure (coordinator: the jobs
	// pool workers hold for a lease, and the leased ones; standalone:
	// Pending is the job queue depth, Leased the jobs currently running).
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// QueueDepth/QueueCapacity are the service's admission queue.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	// Counters are the coordinator's cumulative dispatch counters (zero in
	// standalone mode, which has no dispatcher).
	Counters dist.FleetCounters `json:"counters"`
	// Traces is how many traces the store currently holds.
	Traces int `json:"traces"`
	// JobLatency digests the durations of closed job traces in the store
	// (p50/p99); nil until at least one traced job finished.
	JobLatency *LatencySummary `json:"jobLatency,omitempty"`
}

// PoolStatus is the in-process worker pool of a standalone daemon.
type PoolStatus struct {
	// Size is how many jobs the pool runs at once (Config.Workers).
	Size int `json:"size"`
	// Running is how many jobs it is running now.
	Running int `json:"running"`
}

// FleetStatus assembles the federated status view.
func (s *Service) FleetStatus() FleetStatus {
	s.mu.Lock()
	src := s.coord
	depth, capacity := s.fq.Len(), s.cfg.QueueSize
	running := 0
	for _, j := range s.records {
		if j.status == StatusRunning {
			running++
		}
	}
	s.mu.Unlock()

	st := FleetStatus{
		QueueDepth:    depth,
		QueueCapacity: capacity,
		Traces:        s.traces.Len(),
		JobLatency:    latencySummary(s.traces.DurationsByName("job")),
	}
	if src != nil {
		snap := src.FleetSnapshot()
		st.Role = "coordinator"
		st.Workers = snap.Workers
		st.Pending = snap.Pending
		st.Leased = snap.Leased
		st.Counters = snap.Counters
		return st
	}
	// Standalone: no coordinator and no workers, just the pool.
	st.Role = "standalone"
	st.Workers = []dist.WorkerInfo{}
	st.Pool = &PoolStatus{Size: s.cfg.Workers, Running: running}
	st.Pending = depth
	st.Leased = running
	return st
}

// latencySummary digests sorted durations into p50/p99, nil when empty.
func latencySummary(durations []int64) *LatencySummary {
	if len(durations) == 0 {
		return nil
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return &LatencySummary{
		Count:    len(durations),
		P50Nanos: percentile(durations, 50),
		P99Nanos: percentile(durations, 99),
	}
}

// percentile picks the nearest-rank percentile from sorted values.
func percentile(sorted []int64, p int) int64 {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// handleFleetStatus serves GET /v1/fleet/status.
func (s *Service) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.FleetStatus())
}
