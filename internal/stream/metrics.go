package stream

import "repro/internal/telemetry"

// Metrics are the ingest counters every session of one service shares,
// registered on the service's registry so /metrics exposes job and stream
// families side by side. The session lifecycle counters (opened, active,
// completed, failed, evicted, recovered, corruption) are the service's.
type Metrics struct {
	bytesTotal  *telemetry.Counter
	eventsTotal *telemetry.Counter
	chunkDecode *telemetry.Histogram
	checkpoints *telemetry.Counter
	ckptErrors  *telemetry.Counter
}

// NewMetrics registers the ingest families on reg; registration panics on
// a duplicate name by design, so call it once per registry.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		bytesTotal: reg.Counter("arbalestd_stream_bytes_total",
			"Wire bytes accepted across all streaming sessions."),
		eventsTotal: reg.Counter("arbalestd_stream_events_total",
			"Events decoded and applied across all streaming sessions."),
		chunkDecode: reg.Histogram("arbalestd_stream_chunk_decode_seconds",
			"Per-chunk decode-and-apply latency (decode, dispatch, spool append).",
			telemetry.FineDurationBuckets),
		checkpoints: reg.Counter("arbalestd_stream_checkpoints_written_total",
			"Analyzer-state checkpoints written by streaming sessions at epoch boundaries."),
		ckptErrors: reg.Counter("arbalestd_stream_checkpoint_errors_total",
			"Stream checkpoints that failed to serialize or write."),
	}
}
