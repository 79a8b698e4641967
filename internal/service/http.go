package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs?tool=<name>  submit a trace (JSON lines or CRC-framed);
//	                           202 + job JSON.
//	                           An Idempotency-Key header makes retried
//	                           uploads safe: a duplicate returns the
//	                           original job (200) instead of re-analyzing.
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         one job, including its result when done
//	GET  /v1/jobs/{id}/trace   the job's span tree (accept -> parse ->
//	                           journal -> queue -> replay -> summarize);
//	                           also served at /jobs/{id}/trace
//	GET  /v1/traces            list stored distributed traces (summaries)
//	GET  /v1/traces/{id}       one merged trace tree, spanning every
//	                           process that touched the job or stream
//	                           (?format=otlp for OTLP/JSON)
//	GET  /v1/traces/export     every stored trace as one OTLP/JSON export
//	GET  /v1/fleet/status      federated fleet status: worker liveness,
//	                           lease/fencing counters, queue depths, and
//	                           span-derived job latencies; a standalone
//	                           daemon reports an empty workers table
//	                           plus its pool (size, running)
//	POST   /v1/streams                 open a live ingestion session;
//	                                   201 + session JSON, 429 at the cap
//	GET    /v1/streams                 list sessions
//	GET    /v1/streams/{id}            one session (Events is the resume
//	                                   cursor: the sequence number to send
//	                                   next)
//	POST   /v1/streams/{id}/events     ship framed event chunks; the body is
//	                                   a complete framed stream, decoded and
//	                                   analyzed as it arrives. One request
//	                                   at a time per session; duplicates
//	                                   are skipped by sequence number
//	GET    /v1/streams/{id}/findings   findings from ?since= on; ?wait=
//	                                   long-polls until one arrives
//	POST   /v1/streams/{id}/close      finish cleanly; 200 + summary
//	                                   (idempotent)
//	DELETE /v1/streams/{id}            abort and discard journal state
//	GET  /metrics              full telemetry registry, Prometheus text
//	                           format with # HELP/# TYPE
//	GET  /version              daemon build info (version, Go version)
//	GET  /healthz              liveness probe; 503 once shutdown has begun
//	GET  /readyz               readiness probe; 503 when the queue is >=90%
//	                           full, streams are saturated, or the daemon
//	                           is draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/export", s.handleTracesExport)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
	mux.HandleFunc("POST /v1/streams", s.handleStreamOpen)
	mux.HandleFunc("GET /v1/streams", s.handleStreamList)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamGet)
	mux.HandleFunc("POST /v1/streams/{id}/events", s.handleStreamEvents)
	mux.HandleFunc("GET /v1/streams/{id}/findings", s.handleStreamFindings)
	mux.HandleFunc("POST /v1/streams/{id}/close", s.handleStreamClose)
	mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamAbort)
	mux.HandleFunc("GET /v1/tenants", s.handleTenantList)
	mux.HandleFunc("PUT /v1/tenants/{name}", s.handleTenantSet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleHealthz is the liveness probe. It turns 503 the moment Shutdown
// begins so load balancers stop routing here while accepted jobs drain.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

// ReadyDetail is the structured body GET /readyz answers with: overall
// verdict, every degradation reason (not just the first), queue and stream
// occupancy, journal health, and per-tenant quota saturation — what an
// operator triaging a 503 would otherwise assemble from three endpoints.
type ReadyDetail struct {
	// Status is "ok" or "degraded"; degraded bodies ship with HTTP 503.
	Status string `json:"status"`
	// Reasons lists every active degradation (draining, queue overloaded,
	// streams saturated, journal spool unwritable); empty when ok.
	Reasons       []string `json:"reasons,omitempty"`
	QueueDepth    int      `json:"queueDepth"`
	QueueCapacity int      `json:"queueCapacity"`
	// Streams is the live streaming-session count; StreamsSaturated means
	// it is at the MaxStreams cap.
	Streams          int  `json:"streams"`
	StreamsSaturated bool `json:"streamsSaturated"`
	// JournalWritable is false when the spool probe fails (disk full,
	// permissions); true when healthy or when no journal is configured.
	JournalWritable bool `json:"journalWritable"`
	// Tenants is each tracked tenant's occupancy and quota saturation.
	Tenants []tenant.Usage `json:"tenants,omitempty"`
}

// handleReadyz is the readiness probe: graceful degradation for load
// balancers. It answers 503 while draining, when the job queue is at
// least 90% full (so traffic sheds before submissions start bouncing
// with 429s), and when the journal spool is unwritable (disk full,
// permissions): every accept would fail its write-ahead append anyway,
// so the instance sheds until a spool probe succeeds again. The body is
// a ReadyDetail JSON document either way.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	d := ReadyDetail{
		Status:           "ok",
		QueueDepth:       s.fq.Len(),
		QueueCapacity:    s.cfg.QueueSize,
		Streams:          s.live,
		StreamsSaturated: s.cfg.MaxStreams > 0 && s.live >= s.cfg.MaxStreams,
		JournalWritable:  true,
	}
	draining := s.closed
	s.mu.Unlock()
	d.Tenants = s.tenants.Snapshot()
	if draining {
		d.Reasons = append(d.Reasons, "draining")
	}
	if d.QueueCapacity > 0 && 10*d.QueueDepth >= 9*d.QueueCapacity {
		d.Reasons = append(d.Reasons, "queue overloaded")
	}
	if d.StreamsSaturated {
		d.Reasons = append(d.Reasons, "streams saturated")
	}
	if s.cfg.Journal != nil && !s.cfg.Journal.Writable() {
		d.JournalWritable = false
		d.Reasons = append(d.Reasons, "journal spool unwritable")
	}
	status := http.StatusOK
	if len(d.Reasons) > 0 {
		d.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, d)
}

// handleTenantList serves every tracked tenant's usage and limits.
func (s *Service) handleTenantList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Tenants []tenant.Usage `json:"tenants"`
	}{Tenants: s.tenants.Snapshot()})
}

// handleTenantSet tunes one tenant's limits live. The body is a
// tenant.Limits JSON document; omitted fields are zero (unlimited), so a
// PUT replaces the tenant's limits wholesale. The change is journaled
// (tenants.meta) and survives restart.
func (s *Service) handleTenantSet(w http.ResponseWriter, r *http.Request) {
	var lim tenant.Limits
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lim); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	t := s.tenants.Set(r.PathValue("name"), lim)
	s.writeJSON(w, http.StatusOK, t.Usage())
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	accepted := time.Now()
	toolName := r.URL.Query().Get("tool")
	if toolName == "" {
		toolName = "arbalest"
	}
	// The body is read whole and decoded in place: a framed version-2
	// upload is then kept by the trace as it came, and spooled and served
	// to workers as those bytes. Sized from Content-Length when the client
	// sent one; a chunked body grows as it arrives.
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var tr *trace.Trace
	if err == nil {
		tr, err = trace.Decode(body.Bytes(), trace.Limits{
			MaxEvents: s.cfg.MaxEvents,
			MaxBytes:  s.cfg.MaxBodyBytes,
		})
	}
	parseDur := time.Since(accepted)
	s.metrics.parseSeconds.ObserveDuration(parseDur)
	if err != nil {
		// Submit was never reached, so this is the one place this
		// rejection is counted.
		s.countRejected()
		var ce *trace.CorruptionError
		if errors.As(err, &ce) {
			// A framed upload failed its CRC or framing checks; the error
			// already carries the byte offset and reason for the client.
			s.metrics.traceCorruption.Inc()
		}
		var maxErr *http.MaxBytesError
		status := http.StatusBadRequest
		if errors.Is(err, trace.ErrTooManyEvents) || errors.Is(err, trace.ErrTooManyBytes) || errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, err)
		return
	}
	deadline, derr := tenant.ParseDeadline(r.Header.Get(tenant.DeadlineHeader), accepted)
	if derr != nil {
		s.countRejected()
		s.writeError(w, http.StatusBadRequest, derr)
		return
	}
	// The byte quota is charged by the bytes read, so a chunked upload
	// (Content-Length -1) is charged like any other.
	nbytes := int64(body.Len())
	view, duplicate, err := s.SubmitTrace(SubmitOptions{
		Tool:          toolName,
		Key:           r.Header.Get(retry.IdempotencyHeader),
		Start:         accepted,
		ParseDuration: parseDur,
		Traceparent:   r.Header.Get(telemetry.TraceparentHeader),
		Tenant:        r.Header.Get(tenant.Header),
		Deadline:      deadline,
		Bytes:         nbytes,
	}, tr)
	if err != nil {
		status := submitStatus(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			// Give retrying clients a backoff floor instead of letting
			// them hammer a full queue; a throttled tenant gets the token
			// bucket's actual refill horizon.
			w.Header().Set("Retry-After", retryAfterSeconds(err))
		}
		s.writeError(w, status, err)
		return
	}
	status := http.StatusAccepted
	if duplicate {
		// The key matched an already-accepted job: acknowledge it
		// without re-enqueuing anything.
		w.Header().Set("Idempotency-Replayed", "true")
		status = http.StatusOK
	}
	s.writeJSON(w, status, view)
}

// submitStatus maps a Submit error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull),
		errors.Is(err, tenant.ErrThrottled),
		errors.Is(err, tenant.ErrJobQuota),
		errors.Is(err, tenant.ErrStreamQuota),
		errors.Is(err, tenant.ErrByteQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrJournal):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	default: // unknown tool and other validation failures
		return http.StatusBadRequest
	}
}

// retryAfterSeconds renders the Retry-After value for a 429/503: the token
// bucket's refill horizon for a throttled tenant (rounded up to a whole
// second, minimum 1), a flat 1s floor for everything else.
func retryAfterSeconds(err error) string {
	var te *tenant.ThrottledError
	if errors.As(err, &te) {
		if secs := int(math.Ceil(te.RetryAfter.Seconds())); secs > 1 {
			return strconv.Itoa(secs)
		}
	}
	return "1"
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("service: no such job"))
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}

// handleJobTrace serves one job's span tree. A job restored from the
// journal as history has no in-memory span; that answers 404 with a
// distinct message so callers can tell it from an unknown job id.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	span, ok := s.JobTrace(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("service: no such job"))
		return
	}
	if span == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: job has no trace (recovered from journal)"))
		return
	}
	s.writeJSON(w, http.StatusOK, span)
}

func (s *Service) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, telemetry.Version())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WriteText(w, s.cfg.Workers); err != nil {
		s.cfg.Logger.Error("write /metrics failed", "phase", "http", "err", err)
	}
}

// writeJSON encodes v as the response body. Encode failures after the
// header is out can't change the status anymore, but they are logged
// rather than dropped so a truncated response is visible in operation.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.cfg.Logger.Error("encode response failed", "phase", "http", "status", status, "err", err)
	}
}

func (s *Service) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
