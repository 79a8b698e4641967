package service

import (
	"io"

	"repro/internal/telemetry"
	"repro/internal/tools"
)

// Metrics is the service's metric surface, backed by a telemetry.Registry
// rendered at GET /metrics in the Prometheus text exposition format (with
// # HELP/# TYPE lines). Counter and gauge updates are single atomic
// operations; histograms observe with one atomic add plus a CAS on the
// running sum.
type Metrics struct {
	reg *telemetry.Registry

	jobsAccepted     *telemetry.Counter
	jobsCompleted    *telemetry.Counter
	jobsFailed       *telemetry.Counter
	jobsRejected     *telemetry.Counter
	jobsPanicked     *telemetry.Counter
	jobsRecovered    *telemetry.Counter
	jobsEvicted      *telemetry.Counter
	jobsDeduplicated *telemetry.Counter
	journalErrors    *telemetry.CounterVec
	// journalErrorsAll sums journalErrors across ops. It is not registered —
	// the labeled family is the scrape surface — but keeps Snapshot (and the
	// JSON stats endpoint) a single atomic read.
	journalErrorsAll telemetry.Counter
	eventsReplayed   *telemetry.Counter
	queueDepth       *telemetry.Gauge
	workers          *telemetry.Gauge

	checkpointsWritten  *telemetry.Counter
	checkpointsRestored *telemetry.Counter
	checkpointErrors    *telemetry.Counter
	jobsStalled         *telemetry.Counter
	watchdogRetries     *telemetry.Counter
	journalTruncated    *telemetry.Counter
	traceCorruption     *telemetry.Counter

	queueWait       *telemetry.Histogram
	parseSeconds    *telemetry.Histogram
	replaySeconds   *telemetry.Histogram
	jobSeconds      *telemetry.Histogram
	checkpointBytes *telemetry.Histogram

	vsmTransitions  *telemetry.CounterVec
	casRetries      *telemetry.Counter
	intervalLookups *telemetry.Counter
	regionMemoHits  *telemetry.Counter

	// Per-tenant accounting. Every submission and stream open lands in
	// exactly one of admitted, throttled, or rejected; shed counts queued
	// work later failed by the overload controller or a missed deadline.
	tenantAdmitted   *telemetry.CounterVec
	tenantThrottled  *telemetry.CounterVec
	tenantRejected   *telemetry.CounterVec
	tenantShed       *telemetry.CounterVec
	tenantQueueDepth *telemetry.GaugeVec
	queueSojourn     *telemetry.Histogram

	// Stream session lifecycle; the ingest counters are stream.Metrics.
	streamsActive    *telemetry.Gauge
	streamsOpened    *telemetry.Counter
	streamsCompleted *telemetry.Counter
	streamsFailed    *telemetry.Counter
	streamsRecovered *telemetry.Counter
	streamsEvicted   *telemetry.CounterVec
	streamCorruption *telemetry.Counter
}

// newMetrics builds the registry with every family registered up front, so
// /metrics always exposes the full schema (zero-valued until first use).
func newMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		reg: reg,

		jobsAccepted:     reg.Counter("arbalestd_jobs_accepted_total", "Jobs accepted onto the queue."),
		jobsCompleted:    reg.Counter("arbalestd_jobs_completed_total", "Jobs that finished analysis successfully."),
		jobsFailed:       reg.Counter("arbalestd_jobs_failed_total", "Jobs that finished with an error (including panics and timeouts)."),
		jobsRejected:     reg.Counter("arbalestd_jobs_rejected_total", "Submissions rejected before acceptance (validation, limits, full queue, journal failure)."),
		jobsPanicked:     reg.Counter("arbalestd_jobs_panicked_total", "Jobs whose analyzer panicked; the panic was confined to the job."),
		jobsRecovered:    reg.Counter("arbalestd_jobs_recovered_total", "Jobs re-enqueued from the journal spool on startup."),
		jobsEvicted:      reg.Counter("arbalestd_jobs_evicted_total", "Finished jobs and stream sessions evicted by the retention policy."),
		jobsDeduplicated: reg.Counter("arbalestd_jobs_deduplicated_total", "Submissions answered from an existing job via idempotency key."),
		journalErrors: reg.CounterVec("arbalestd_journal_errors_total",
			"Write-ahead journal failures by operation (append, mark, checkpoint, remove, recover, fleet). Each failure is scoped to one job or session; the daemon stays up.", "op"),
		eventsReplayed: reg.Counter("arbalestd_events_replayed_total", "Trace events replayed through analyzers."),
		queueDepth:     reg.Gauge("arbalestd_queue_depth", "Jobs queued but not yet running."),
		workers:        reg.Gauge("arbalestd_workers", "Replay worker-pool size."),

		checkpointsWritten:  reg.Counter("arbalestd_checkpoints_written_total", "Analyzer-state checkpoints durably written to the spool at epoch boundaries."),
		checkpointsRestored: reg.Counter("arbalestd_checkpoints_restored_total", "Replays resumed from a spooled checkpoint instead of starting from scratch."),
		checkpointErrors:    reg.Counter("arbalestd_checkpoint_errors_total", "Checkpoints that failed to serialize or write, plus corrupt checkpoints dropped at recovery."),
		jobsStalled:         reg.Counter("arbalestd_jobs_stalled_total", "Replays canceled by the watchdog after their progress heartbeats stopped advancing."),
		watchdogRetries:     reg.Counter("arbalestd_watchdog_retries_total", "Stalled replays retried sequentially from their freshest checkpoint."),
		journalTruncated:    reg.Counter("arbalestd_journal_truncated_records_total", "Torn or corrupt journal meta records dropped during recovery."),
		traceCorruption:     reg.Counter("arbalestd_trace_corruption_total", "Uploads rejected because a framed trace failed its CRC or framing checks."),

		queueWait: reg.Histogram("arbalestd_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", telemetry.DurationBuckets),
		parseSeconds: reg.Histogram("arbalestd_parse_duration_seconds",
			"Time spent parsing uploaded traces (successful and failed).", telemetry.DurationBuckets),
		replaySeconds: reg.Histogram("arbalestd_replay_duration_seconds",
			"Replay wall time per job.", telemetry.DurationBuckets),
		jobSeconds: reg.Histogram("arbalestd_job_duration_seconds",
			"End-to-end job time from accept to terminal state.", telemetry.DurationBuckets),
		checkpointBytes: reg.Histogram("arbalestd_checkpoint_bytes",
			"Serialized analyzer-state size per checkpoint, in bytes.", telemetry.SizeBuckets),

		vsmTransitions: reg.CounterVec("arbalestd_vsm_transitions_total",
			"VSM state transitions applied during replays, by (from, to) state.", "from", "to"),
		casRetries: reg.Counter("arbalestd_shadow_cas_retries_total",
			"Failed compare-and-swap attempts on shadow words during replays; always 0, since shadow updates are plain stores."),
		intervalLookups: reg.Counter("arbalestd_interval_lookups_total",
			"Interval-index stabs performed during replays (lookups the region and CV memos did not answer)."),
		regionMemoHits: reg.Counter("arbalestd_region_memo_hits_total",
			"Address resolutions satisfied by a last-hit memo instead of an interval-index stab during replays."),

		tenantAdmitted: reg.CounterVec("arbalestd_tenant_admitted_total",
			"Submissions and stream opens admitted, by tenant.", "tenant"),
		tenantThrottled: reg.CounterVec("arbalestd_tenant_throttled_total",
			"Requests rejected by the tenant token-bucket rate limiter (429 with Retry-After), by tenant.", "tenant"),
		tenantRejected: reg.CounterVec("arbalestd_tenant_rejected_total",
			"Requests rejected by tenant quotas or queue capacity, by tenant and reason (jobs, streams, bytes, queue).", "tenant", "reason"),
		tenantShed: reg.CounterVec("arbalestd_tenant_shed_total",
			"Queued jobs shed before replay, by tenant and reason (overload: CoDel queue-delay controller; deadline: client deadline expired).", "tenant", "reason"),
		tenantQueueDepth: reg.GaugeVec("arbalestd_tenant_queue_depth",
			"Jobs queued but not yet running, by tenant.", "tenant"),
		queueSojourn: reg.Histogram("arbalestd_queue_sojourn_seconds",
			"Queue delay observed at dequeue — the signal the CoDel shed controller tracks.", telemetry.DurationBuckets),

		streamsActive: reg.Gauge("arbalestd_streams_active",
			"Live streaming ingestion sessions."),
		streamsOpened: reg.Counter("arbalestd_streams_opened_total",
			"Streaming sessions accepted."),
		streamsCompleted: reg.Counter("arbalestd_streams_completed_total",
			"Streaming sessions closed cleanly by their client."),
		streamsFailed: reg.Counter("arbalestd_streams_failed_total",
			"Streaming sessions that ended in an error (corruption, limits, analyzer panic, abort)."),
		streamsRecovered: reg.Counter("arbalestd_streams_recovered_total",
			"Live streaming sessions rebuilt from the journal spool on startup."),
		streamsEvicted: reg.CounterVec("arbalestd_streams_evicted_total",
			"Streaming sessions evicted by the server, by reason (idle, slow, budget).", "reason"),
		streamCorruption: reg.Counter("arbalestd_stream_corruption_total",
			"Streaming sessions failed by corrupt input (CRC mismatch, torn frames, sequence gaps)."),
	}
	bi := telemetry.Version()
	reg.GaugeVec("arbalestd_build_info",
		"Build information; value is always 1.", "goversion", "version").
		With(bi.GoVersion, bi.Version).Set(1)
	return m
}

// Registry exposes the underlying telemetry registry (tests and embedders).
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// Snapshot is a point-in-time copy of the counters, JSON-serializable.
type Snapshot struct {
	JobsAccepted     int64 `json:"jobsAccepted"`
	JobsCompleted    int64 `json:"jobsCompleted"`
	JobsFailed       int64 `json:"jobsFailed"`
	JobsRejected     int64 `json:"jobsRejected"`
	JobsPanicked     int64 `json:"jobsPanicked"`
	JobsRecovered    int64 `json:"jobsRecovered"`
	JobsEvicted      int64 `json:"jobsEvicted"`
	JobsDeduplicated int64 `json:"jobsDeduplicated"`
	JournalErrors    int64 `json:"journalErrors"`
	QueueDepth       int64 `json:"queueDepth"`
	EventsReplayed   int64 `json:"eventsReplayed"`

	CheckpointsWritten  int64 `json:"checkpointsWritten"`
	CheckpointsRestored int64 `json:"checkpointsRestored"`
	CheckpointErrors    int64 `json:"checkpointErrors"`
	JobsStalled         int64 `json:"jobsStalled"`
	WatchdogRetries     int64 `json:"watchdogRetries"`
	JournalTruncated    int64 `json:"journalTruncated"`
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		JobsAccepted:     int64(m.jobsAccepted.Value()),
		JobsCompleted:    int64(m.jobsCompleted.Value()),
		JobsFailed:       int64(m.jobsFailed.Value()),
		JobsRejected:     int64(m.jobsRejected.Value()),
		JobsPanicked:     int64(m.jobsPanicked.Value()),
		JobsRecovered:    int64(m.jobsRecovered.Value()),
		JobsEvicted:      int64(m.jobsEvicted.Value()),
		JobsDeduplicated: int64(m.jobsDeduplicated.Value()),
		JournalErrors:    int64(m.journalErrorsAll.Value()),
		QueueDepth:       m.queueDepth.Value(),
		EventsReplayed:   int64(m.eventsReplayed.Value()),

		CheckpointsWritten:  int64(m.checkpointsWritten.Value()),
		CheckpointsRestored: int64(m.checkpointsRestored.Value()),
		CheckpointErrors:    int64(m.checkpointErrors.Value()),
		JobsStalled:         int64(m.jobsStalled.Value()),
		WatchdogRetries:     int64(m.watchdogRetries.Value()),
		JournalTruncated:    int64(m.journalTruncated.Value()),
	}
}

// WriteText renders the full registry in the Prometheus text exposition
// format served at GET /metrics. workers is the service's worker-pool size.
func (m *Metrics) WriteText(w io.Writer, workers int) error {
	m.workers.Set(int64(workers))
	return m.reg.WritePrometheus(w)
}

// journalError counts one journal write failure under its operation label
// and in the unlabeled snapshot sum.
func (m *Metrics) journalError(op string) {
	m.journalErrors.With(op).Inc()
	m.journalErrorsAll.Inc()
}

// recordJobStats folds one finished job's analyzer-level telemetry into the
// service-wide labeled counters. st may be nil (stats disabled).
func (m *Metrics) recordJobStats(st *tools.Stats) {
	if st == nil {
		return
	}
	for _, t := range st.VSMTransitions {
		m.vsmTransitions.With(t.From, t.To).Add(t.Count)
	}
	m.casRetries.Add(st.ShadowCASRetries)
	m.intervalLookups.Add(st.IntervalLookups)
	m.regionMemoHits.Add(st.RegionMemoHits)
}
