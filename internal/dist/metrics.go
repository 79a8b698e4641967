package dist

import "repro/internal/telemetry"

// fleetMetrics is the coordinator's metric surface. The families register
// into the service's shared registry so GET /metrics on the coordinator
// exposes fleet health next to the job and stream families.
type fleetMetrics struct {
	workers             *telemetry.Gauge
	leasesGranted       *telemetry.Counter
	leasesExpired       *telemetry.Counter
	heartbeats          *telemetry.Counter
	fencedWrites        *telemetry.CounterVec // op: heartbeat|checkpoint|result
	checkpointsReceived *telemetry.Counter
	jobsRescheduled     *telemetry.Counter
	jobsInline          *telemetry.Counter
	results             *telemetry.CounterVec // status: done|failed
}

func newFleetMetrics(reg *telemetry.Registry) *fleetMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &fleetMetrics{
		workers: reg.Gauge("arbalestd_fleet_workers",
			"Live registered analysis workers (heartbeated within the worker TTL)."),
		leasesGranted: reg.Counter("arbalestd_fleet_leases_granted_total",
			"Job leases granted to workers, each carrying a fresh fencing token."),
		leasesExpired: reg.Counter("arbalestd_fleet_leases_expired_total",
			"Leases expired after missed heartbeats; the job is rescheduled."),
		heartbeats: reg.Counter("arbalestd_fleet_heartbeats_total",
			"Lease heartbeats accepted from workers."),
		fencedWrites: reg.CounterVec("arbalestd_fleet_fenced_writes_total",
			"Worker writes rejected by the fencing token (zombie or partitioned holder), by operation.", "op"),
		checkpointsReceived: reg.Counter("arbalestd_fleet_checkpoints_received_total",
			"Epoch-barrier checkpoints streamed back by workers and ingested."),
		jobsRescheduled: reg.Counter("arbalestd_fleet_jobs_rescheduled_total",
			"Jobs put back in the job queue after their holder's lease expired."),
		jobsInline: reg.Counter("arbalestd_fleet_jobs_inline_total",
			"Jobs a coordinator's pool ran itself because no worker was live and no restart grace was running."),
		results: reg.CounterVec("arbalestd_fleet_results_total",
			"Remote job results accepted, by terminal status.", "status"),
	}
}
