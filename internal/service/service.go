// Package service is the arbalestd analysis daemon: a long-running HTTP
// service that accepts recorded tool-interface traces (the JSON-lines format
// trace.Save emits), enqueues them on a bounded job queue, replays each
// through a fresh analyzer on a fixed worker pool, and serves the resulting
// diagnostics as structured JSON.
//
// The paper positions ARBALEST as an on-the-fly detector run over many
// executions of heterogeneous OpenMP applications; this package supplies the
// "collect traces at scale, analyze centrally" half of that pipeline. A
// submission is cheap (parse + enqueue, 429 when the queue is full), the
// replay work happens on -workers goroutines, and every job's lifecycle and
// the service's counters are observable over HTTP.
//
// # Durability and fault tolerance
//
// With a journal configured (Config.Journal), every accepted job is
// journaled to a spool directory before it is acknowledged: the trace
// first, then each lifecycle transition. After a crash, Recover replays
// the journal — jobs that never reached a terminal state are re-enqueued
// exactly once, terminal jobs come back as history. Analyzer panics are
// confined to the job that caused them: the job fails with the panic
// value and a stack fragment while the worker and its pool survive.
// Retention limits (Config.MaxFinishedJobs, Config.MaxJobAge) garbage-
// collect finished jobs and their spool files so neither the in-memory
// job map nor the spool directory grows without bound. Clients may send
// an idempotency key with a submission; a retried upload carrying the
// same key is deduplicated to the original job instead of analyzed
// twice.
//
// # Observability
//
// Every job carries a span tree (accept -> parse -> journal -> queue ->
// replay -> summarize) served at GET /v1/jobs/{id}/trace and embedded in
// the job JSON; GET /metrics exposes the full telemetry registry in
// Prometheus text format, including latency histograms and analyzer-level
// VSM statistics aggregated across jobs. Operational logging goes through
// a structured log/slog logger with job_id, tool, and phase attributes.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/tools"
	"repro/internal/trace"
)

// Submission errors surfaced by Submit (and mapped to HTTP statuses by the
// handlers: 429 for ErrQueueFull, 503 for ErrShuttingDown and ErrJournal,
// 413 for ErrTooLarge).
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: shutting down")
	ErrTooLarge     = errors.New("service: trace exceeds per-job event limit")
	// ErrJournal wraps a write-ahead journal failure on the accept path.
	// The submission was not accepted; retrying (with the same
	// idempotency key) is safe.
	ErrJournal = errors.New("service: journal write failed")
)

// Config parameterizes a Service. Zero fields take the documented defaults.
type Config struct {
	// Workers is the replay worker-pool size — how many jobs analyze
	// concurrently (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the number of queued-but-not-running jobs
	// (default 64). A full queue rejects submissions rather than blocking.
	QueueSize int
	// MaxEvents caps a single job's trace length (default 1<<20 events).
	MaxEvents int
	// MaxBodyBytes caps a single upload's size (default 64 MiB).
	MaxBodyBytes int64
	// ReplayTimeout bounds one job's replay wall time; the replay is
	// canceled via context when it expires (default 0 = unlimited).
	ReplayTimeout time.Duration
	// CheckpointEvery, when positive and a Journal is configured, asks
	// each replay to checkpoint the analyzer's state roughly every this
	// many events (taken at the next epoch boundary). After a crash,
	// Recover resumes such jobs from their freshest checkpoint instead of
	// replaying from scratch. Only analyzers implementing
	// tools.Checkpointer participate; the rest re-run from the start as
	// before. 0 disables checkpointing.
	CheckpointEvery uint64
	// StallTimeout, when positive, arms a per-job watchdog: a replay
	// whose progress heartbeats stop advancing for this long is canceled
	// and retried once sequentially from its freshest checkpoint; if the
	// retry stalls too, the job fails. 0 disables the watchdog.
	StallTimeout time.Duration
	// Journal, when non-nil, write-ahead journals every accepted job to
	// its spool directory and makes Recover possible. Nil keeps jobs
	// in-memory only.
	Journal *journal.Journal
	// MaxFinishedJobs bounds how many terminal (done/failed) jobs are
	// retained in memory and in the spool; the oldest-finished are
	// evicted past the limit (default 1024, negative = unlimited).
	MaxFinishedJobs int
	// MaxJobAge, when positive, evicts terminal jobs whose finish time
	// is older than this (checked when jobs finish and on submissions).
	MaxJobAge time.Duration
	// Logger receives structured operational logging (journal mark
	// failures, analyzer panics, recovery problems); every job-scoped
	// line carries job_id, tool, and phase attributes. Nil discards.
	Logger *slog.Logger
	// AnalyzerStats, when true, enables per-job analyzer-level telemetry
	// (VSM state transitions, shadow CAS retries, interval-tree lookups)
	// on analyzers that support it. The counts appear in each job's
	// result and aggregate into the /metrics registry. Off by default:
	// the instrumented paths are nil-checked atomics with no measurable
	// overhead when disabled, but collection itself is opt-in.
	AnalyzerStats bool
	// MaxStreams caps concurrently live streaming ingestion sessions
	// (default 256, negative = unlimited). At the cap, POST /v1/streams
	// answers 429 and /readyz degrades to 503.
	MaxStreams int
	// StreamMaxBytes is each streaming session's wire-byte budget (default
	// 256 MiB, negative = unlimited); a session that exceeds it is evicted.
	StreamMaxBytes int64
	// StreamIdleTimeout evicts live streaming sessions with no ingest
	// activity for this long (default 5m, negative disables).
	StreamIdleTimeout time.Duration
	// StreamReadTimeout bounds how long an attached ingest request may go
	// between body chunks before the session is evicted as a slow consumer
	// (default 1m, negative disables).
	StreamReadTimeout time.Duration
	// ExternalDispatch, when true, keeps Start from launching the inline
	// worker pool: accepted jobs stay on the queue for an external
	// dispatcher (the fleet coordinator, via dist.Backend) that decides
	// per job whether to lease it to a remote worker or run it inline.
	// Everything else — admission, journaling, recovery, retention — is
	// unchanged.
	ExternalDispatch bool
	// TraceCapacity bounds the in-memory distributed-trace store served at
	// GET /v1/traces (0 = telemetry.DefaultTraceCapacity). Negative
	// disables distributed tracing entirely: jobs and streams get no trace
	// identity, lease grants carry no traceparent, and the traced code
	// paths reduce to nil checks.
	TraceCapacity int
	// TraceSampleRate is the head-based sampling fraction for new traces
	// (<=0 or >=1 records every trace). The verdict is made once at
	// admission and propagated in the trace context, so every process
	// handling the job agrees.
	TraceSampleRate float64
	// TenantDefaults are the limits unknown tenants start with. The zero
	// value is a fully open tenant — the single-tenant daemon's behavior.
	TenantDefaults tenant.Limits
	// TenantLimits seeds per-tenant limits at construction (the -tenants
	// flag). Limits recovered from the journal's tenant log are applied
	// after these, so live tuning from a previous life wins.
	TenantLimits map[string]tenant.Limits
	// ShedTarget, when positive, arms the CoDel-style queue-delay
	// controller: when the queue sojourn observed at dequeue stays above
	// this target for a full interval, the newest queued job of the
	// heaviest-backlogged tenant is shed (failed before replay) and sheds
	// accelerate until the delay recovers. 0 disables shedding.
	ShedTarget time.Duration
	// ShedInterval is the controller's initial interval (default
	// 10*ShedTarget).
	ShedInterval time.Duration
	// GCInterval, when positive, also runs the retention GC on a background
	// timer (it always runs inline as jobs finish and on submissions). The
	// timer's first firing is staggered by a uniform random fraction of the
	// interval so a fleet restarted in unison does not sweep its spool
	// directories in lockstep.
	GCInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxFinishedJobs == 0 {
		c.MaxFinishedJobs = 1024
	}
	if c.StreamReadTimeout == 0 {
		c.StreamReadTimeout = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Service is the analysis daemon's engine: job store, bounded queue, and
// worker pool. Create with New, then (optionally) Recover, then Start;
// submit via Submit or the HTTP handler; stop with Shutdown, which drains
// accepted jobs.
type Service struct {
	cfg     Config
	metrics *Metrics
	hub     *stream.Hub
	// traces is the bounded distributed-trace store (nil when
	// Config.TraceCapacity is negative: tracing disabled).
	traces *telemetry.TraceStore
	// fleetSource, when set (SetFleetSource), contributes the coordinator's
	// worker table to GET /v1/fleet/status; nil means standalone mode and
	// the handler synthesizes the inline pool as one worker.
	fleetSource FleetSource

	// tenants is the tenant registry: identity, rate limits, quotas, and
	// WFQ weights. It has its own lock, always acquired after s.mu.
	tenants *tenant.Registry

	mu sync.Mutex
	// fq is the weighted-fair job queue, guarded by s.mu. ready is its
	// wake-up channel: one buffered token per push (best effort — a shed
	// leaves an orphan token, a full buffer drops the send), so tokens >=
	// queued items always holds and dequeue treats an empty pop as a
	// spurious wake-up. Shutdown closes ready.
	fq        *tenant.FairQueue[*job]
	ready     chan struct{}
	codel     tenant.CoDel
	jobs      map[string]*job
	order     []string
	keys      map[string]string // idempotency key -> job id
	nextID    uint64
	closed    bool
	recovered bool

	wg      sync.WaitGroup
	started bool
	gcStop  chan struct{}

	// testHookRunning, when set before Start, is called by a worker after
	// its job enters StatusRunning and before the replay begins. Tests use
	// it to hold workers in a known state.
	testHookRunning func(id string)
}

// New builds a Service with cfg (defaults applied). Call Start to launch the
// worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	svc := &Service{
		cfg:     cfg,
		metrics: newMetrics(),
		tenants: tenant.NewRegistry(cfg.TenantDefaults),
		fq:      tenant.NewFairQueue[*job](),
		ready:   make(chan struct{}, cfg.QueueSize),
		codel:   tenant.CoDel{Target: cfg.ShedTarget, Interval: cfg.ShedInterval},
		jobs:    make(map[string]*job),
		keys:    make(map[string]string),
		gcStop:  make(chan struct{}),
	}
	// Flag-seeded limits go through Apply, not Set: only live tuning is
	// journaled, so recovery (which runs after this) can overlay newer
	// journaled limits on top.
	for name, lim := range cfg.TenantLimits {
		svc.tenants.Apply(name, lim)
	}
	if cfg.Journal != nil {
		tl := cfg.Journal.Tenants()
		svc.tenants.OnChange(func(name string, lim tenant.Limits) {
			if err := tl.RecordLimits(name, lim); err != nil {
				svc.metrics.journalError("tenant")
				cfg.Logger.Error("tenant limits journal failed",
					"phase", "tenant", "tenant", name, "err", err)
			}
		})
	}
	if cfg.TraceCapacity >= 0 {
		svc.traces = telemetry.NewTraceStore(cfg.TraceCapacity, cfg.TraceSampleRate, svc.metrics.reg)
	}
	// The stream hub shares the service's registry so /metrics exposes job
	// and stream families side by side (one hub per registry), the trace
	// store so stream sessions land next to job traces, and the tenant
	// registry so stream slots and spooled bytes draw on the same quotas as
	// job submissions.
	svc.hub = stream.NewHub(stream.Config{
		Registry:        svc.metrics.reg,
		Traces:          svc.traces,
		Tenants:         svc.tenants,
		Journal:         cfg.Journal,
		MaxStreams:      cfg.MaxStreams,
		MaxBytes:        cfg.StreamMaxBytes,
		MaxEvents:       cfg.MaxEvents,
		IdleTimeout:     cfg.StreamIdleTimeout,
		CheckpointEvery: cfg.CheckpointEvery,
		Logger:          cfg.Logger,
		AnalyzerStats:   cfg.AnalyzerStats,
	})
	return svc
}

// Config returns the resolved configuration.
func (s *Service) Config() Config { return s.cfg }

// Metrics returns the service's counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Streams returns the live streaming-ingestion hub.
func (s *Service) Streams() *stream.Hub { return s.hub }

// Traces returns the bounded distributed-trace store, nil when tracing is
// disabled (Config.TraceCapacity < 0).
func (s *Service) Traces() *telemetry.TraceStore { return s.traces }

// Tenants returns the tenant registry.
func (s *Service) Tenants() *tenant.Registry { return s.tenants }

// jobLogger returns the configured logger scoped to one job, so every line
// it emits carries the job_id and tool attributes — plus trace_id/span_id
// when the job is traced, which is what joins log lines against
// GET /v1/traces/{trace_id}.
func (s *Service) jobLogger(j *job) *slog.Logger {
	return telemetry.LoggerWithTrace(s.cfg.Logger.With("job_id", j.id, "tool", j.tool), j.tc)
}

// Draining reports whether Shutdown has begun; the health endpoint turns
// 503 once it has, so load balancers stop routing to this instance.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// QueueFullness returns queued jobs and queue capacity; the readiness
// endpoint degrades to 503 when the queue is nearly full.
func (s *Service) QueueFullness() (depth, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fq.Len(), s.cfg.QueueSize
}

// Recover replays the configured journal's spool directory into the
// service: terminal jobs are restored as history (results and errors
// intact), and every job that never reached a terminal state is
// re-enqueued exactly once for analysis. It must be called after New and
// before Start, at most once, and returns the number of re-enqueued jobs.
// Per-job journal damage (a corrupt meta file, a missing trace) is
// logged and skipped, never fatal: one bad spool entry must not keep the
// daemon down.
func (s *Service) Recover() (int, error) {
	if s.cfg.Journal == nil {
		return 0, errors.New("service: no journal configured")
	}
	// Streaming sessions recover alongside jobs: live ones are rebuilt from
	// their checkpoint plus spooled bytes and stay open for client resume.
	// Stream damage is logged, never fatal to job recovery.
	if n, err := s.hub.Recover(); err != nil {
		s.cfg.Logger.Error("stream recovery failed", "phase", "recovery", "err", err)
	} else if n > 0 {
		s.cfg.Logger.Info("recovered live streaming sessions", "phase", "recovery", "sessions", n)
	}
	// Journaled tenant tuning overlays the flag-seeded limits (Apply: no
	// re-journaling). A damaged tenant log degrades to flag defaults, never
	// blocks job recovery.
	var tstats journal.RecoverStats
	if lims, terr := s.cfg.Journal.Tenants().RecoverTenants(&tstats); terr != nil {
		s.cfg.Logger.Error("tenant limits recovery failed", "phase", "recovery", "err", terr)
	} else {
		for name, lim := range lims {
			s.tenants.Apply(name, lim)
		}
	}
	recovered, rstats, errs := s.cfg.Journal.Recover()
	rstats.TruncatedRecords += tstats.TruncatedRecords
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return 0, errors.New("service: Recover must be called before Start")
	}
	if s.recovered {
		return 0, errors.New("service: Recover called twice")
	}
	s.recovered = true
	if rstats.TruncatedRecords > 0 {
		s.metrics.journalTruncated.Add(uint64(rstats.TruncatedRecords))
		s.cfg.Logger.Warn("journal recovery dropped torn or corrupt meta records",
			"phase", "recovery", "records", rstats.TruncatedRecords)
	}
	if rstats.DroppedCheckpoints > 0 {
		s.metrics.checkpointErrors.Add(uint64(rstats.DroppedCheckpoints))
		s.cfg.Logger.Warn("journal recovery dropped corrupt checkpoints; affected jobs replay from scratch",
			"phase", "recovery", "checkpoints", rstats.DroppedCheckpoints)
	}
	for _, err := range errs {
		s.metrics.journalError("recover")
		l := s.cfg.Logger.With("phase", "recovery")
		var je *journal.JobError
		if errors.As(err, &je) {
			l = l.With("job_id", je.ID)
		}
		l.Error("journal recovery error", "err", err)
	}

	// Grow the wake-up channel if the backlog from the previous life
	// exceeds the configured capacity: recovery must never drop an accepted
	// job. The fresh channel gets exactly one token per job already queued
	// (orphan tokens from pre-recovery sheds are not carried over).
	pending := 0
	for _, rj := range recovered {
		if rj.Status == journal.StatusPending || rj.Status == journal.StatusRunning {
			pending++
		}
	}
	if need := s.fq.Len() + pending; need > cap(s.ready) {
		fresh := make(chan struct{}, need)
		for i := 0; i < s.fq.Len(); i++ {
			fresh <- struct{}{}
		}
		s.ready = fresh
	}

	requeued := 0
	for _, rj := range recovered {
		if _, exists := s.jobs[rj.ID]; exists {
			continue
		}
		j := &job{
			id:        rj.ID,
			tool:      rj.Tool,
			key:       rj.Key,
			tenant:    tenant.Canonical(rj.Tenant),
			deadline:  rj.Deadline,
			submitted: rj.Submitted,
			started:   rj.Started,
			events:    rj.Events,
		}
		switch rj.Status {
		case journal.StatusDone:
			j.status = StatusDone
			j.finished = rj.Finished
			if len(rj.Result) > 0 {
				var sum tools.Summary
				if err := json.Unmarshal(rj.Result, &sum); err == nil {
					j.result = &sum
				} else {
					s.jobLogger(j).Error("recovered result unmarshal failed",
						"phase", "recovery", "err", err)
				}
			}
		case journal.StatusFailed:
			j.status = StatusFailed
			j.finished = rj.Finished
			j.errMsg = rj.Error
		default: // pending or running: back to the queue, exactly once
			j.status = StatusPending
			j.started = time.Time{}
			j.tr = rj.Trace
			j.ckpt = rj.Checkpoint
			j.enqueued = time.Now()
			// Re-attribute the job to its tenant without quota enforcement
			// (an accepted job must never be dropped at restart); the spool
			// does not record upload sizes, so recovered jobs hold a slot
			// but no bytes.
			t := s.tenants.Get(j.tenant)
			t.Adopt(0)
			j.quotaHeld = true
			s.fq.Push(j.tenant, t.Weight(), j)
			s.metrics.tenantQueueDepth.With(j.tenant).Set(int64(s.fq.TenantLen(j.tenant)))
			select {
			case s.ready <- struct{}{}:
			default:
			}
			requeued++
			s.metrics.jobsRecovered.Inc()
			s.metrics.queueDepth.Add(1)
			if j.ckpt != nil {
				s.jobLogger(j).Info("job re-enqueued from journal with checkpoint",
					"phase", "recovery", "resume_event", j.ckpt.NextEvent)
			} else {
				s.jobLogger(j).Info("job re-enqueued from journal", "phase", "recovery")
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.key != "" {
			s.keys[j.key] = j.id
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(rj.ID, "job-"), 10, 64); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return requeued, nil
}

// Start launches the worker pool. It is a no-op if already started.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	if !s.cfg.ExternalDispatch {
		s.wg.Add(s.cfg.Workers)
		for i := 0; i < s.cfg.Workers; i++ {
			go s.worker()
		}
	}
	if s.cfg.GCInterval > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	s.hub.Start()
}

// gcLoop runs the retention GC on a timer. The first firing is staggered
// by a uniform random fraction of the interval: a fleet of daemons
// restarted in unison (deploy, power event) must not all sweep their spool
// directories at the same instant and stampede the shared disk.
func (s *Service) gcLoop() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Duration(rand.Int64N(int64(s.cfg.GCInterval) + 1)))
	defer timer.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-timer.C:
			s.GC()
			timer.Reset(s.cfg.GCInterval)
		}
	}
}

// Submit validates the tool name and trace size, then enqueues a job. It
// never blocks: a full queue fails with ErrQueueFull (HTTP 429) so callers
// get backpressure instead of latency.
func (s *Service) Submit(toolName string, tr *trace.Trace) (JobView, error) {
	view, _, err := s.SubmitTrace(SubmitOptions{Tool: toolName}, tr)
	return view, err
}

// SubmitKeyed is Submit with an optional idempotency key. When key is
// non-empty and a live job was already accepted under it, that job's view
// is returned with duplicate=true and nothing new is enqueued — this is
// what makes client-side retry of an upload safe. With a journal
// configured, the job is durably journaled before it is acknowledged.
func (s *Service) SubmitKeyed(toolName, key string, tr *trace.Trace) (view JobView, duplicate bool, err error) {
	return s.SubmitTrace(SubmitOptions{Tool: toolName, Key: key}, tr)
}

// SubmitOptions carries a submission's metadata, including the timing the
// caller observed before Submit was reached, so the job's span tree can
// start at request arrival rather than at enqueue.
type SubmitOptions struct {
	// Tool is the analyzer name (see tools.Names).
	Tool string
	// Key is the optional idempotency key.
	Key string
	// Start is when the request was first seen (zero = now). It becomes
	// the root span's start time.
	Start time.Time
	// ParseDuration is how long the caller spent parsing the trace before
	// submission; non-zero adds a "parse" child span.
	ParseDuration time.Duration
	// Traceparent, when it parses as a W3C traceparent header, joins the
	// job to the client's distributed trace (the client's span becomes the
	// job span's parent and its sampling verdict is honored). Empty or
	// malformed, the service mints a fresh trace subject to head sampling.
	Traceparent string
	// Tenant is the caller's identity (the X-Arbalest-Tenant header);
	// empty maps to tenant.DefaultName.
	Tenant string
	// Deadline, when non-zero, is the client's completion deadline; a job
	// still queued when it passes is shed instead of replayed.
	Deadline time.Time
	// Bytes is the upload's wire size, charged against the tenant's byte
	// quota while the job is live (0 = uncharged).
	Bytes int64
}

// SubmitTrace is the full submission entry point: Submit and SubmitKeyed
// delegate to it. It builds the job's span tree (root "job" with parse,
// journal, and queue children; the worker adds replay and summarize).
func (s *Service) SubmitTrace(opts SubmitOptions, tr *trace.Trace) (view JobView, duplicate bool, err error) {
	if opts.Start.IsZero() {
		opts.Start = time.Now()
	}
	if _, err := tools.New(opts.Tool); err != nil {
		s.countRejected()
		return JobView{}, false, err
	}
	if len(tr.Events) > s.cfg.MaxEvents {
		s.countRejected()
		return JobView{}, false, fmt.Errorf("%w: %d events > limit %d", ErrTooLarge, len(tr.Events), s.cfg.MaxEvents)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.countRejected()
		return JobView{}, false, ErrShuttingDown
	}
	if opts.Key != "" {
		if id, ok := s.keys[opts.Key]; ok {
			if j, ok := s.jobs[id]; ok {
				s.metrics.jobsDeduplicated.Inc()
				return j.viewLocked(), true, nil
			}
			// The original was evicted by retention GC; treat the
			// resubmission as new work.
			delete(s.keys, opts.Key)
		}
	}
	// Tenant admission: rate limit first (cheapest, carries Retry-After),
	// then global queue capacity, then the tenant's job/byte quotas —
	// acquired last so no release is needed on the capacity rejection.
	tname := tenant.Canonical(opts.Tenant)
	tn := s.tenants.Get(tname)
	// Get may have collapsed the identity into the shared overflow tenant;
	// metrics and the queue must key on the effective name.
	tname = tn.Name()
	if err := tn.Admit(); err != nil {
		s.metrics.tenantThrottled.With(tname).Inc()
		s.countRejected()
		return JobView{}, false, err
	}
	if s.fq.Len() >= s.cfg.QueueSize {
		s.metrics.tenantRejected.With(tname, "queue").Inc()
		s.countRejected()
		return JobView{}, false, ErrQueueFull
	}
	if err := tn.AcquireJob(opts.Bytes); err != nil {
		reason := "jobs"
		if errors.Is(err, tenant.ErrByteQuota) {
			reason = "bytes"
		}
		s.metrics.tenantRejected.With(tname, reason).Inc()
		s.countRejected()
		return JobView{}, false, err
	}
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		tool:      opts.Tool,
		key:       opts.Key,
		tenant:    tname,
		deadline:  opts.Deadline,
		bytes:     opts.Bytes,
		quotaHeld: true,
		status:    StatusPending,
		submitted: time.Now(),
		events:    len(tr.Events),
		tr:        tr,
		span:      telemetry.NewSpan("job", opts.Start),
	}
	if s.traces != nil {
		if ptc, ok := telemetry.ParseTraceparent(opts.Traceparent); ok {
			// Client-supplied context: join its trace under its span, keeping
			// its sampling verdict so every process agrees.
			j.tc = telemetry.TraceContext{TraceID: ptc.TraceID, SpanID: telemetry.NewSpanID(), Sampled: ptc.Sampled}
			if j.tc.Sampled {
				j.span.Identify(j.tc, ptc.SpanID)
			}
		} else if s.traces.Admit() {
			j.tc = telemetry.NewTraceContext()
			j.span.Identify(j.tc, "")
		}
	}
	j.span.SetCount("events", int64(j.events))
	if opts.ParseDuration > 0 {
		ps := j.span.StartChild("parse", opts.Start)
		ps.EndAt(opts.Start.Add(opts.ParseDuration))
	}
	// Validation, deduplication and tenant admission ran between the parse
	// and here.
	j.span.StartChild("admit", opts.Start.Add(opts.ParseDuration)).EndAt(time.Time{})
	if s.cfg.Journal != nil {
		// Write-ahead: the job is journaled (trace + pending mark,
		// fsynced) before it is acknowledged or enqueued, so a crash
		// after this point cannot lose it.
		js := j.span.StartChild("journal", time.Time{})
		jerr := s.cfg.Journal.Append(journal.Record{
			ID: j.id, Tool: j.tool, Key: j.key, Tenant: j.tenant,
			Events: j.events, Submitted: j.submitted, Deadline: j.deadline,
		}, tr)
		js.EndAt(time.Time{})
		if jerr != nil {
			tn.ReleaseJob(j.bytes)
			s.metrics.journalError("append")
			s.countRejected()
			return JobView{}, false, fmt.Errorf("%w: %v", ErrJournal, jerr)
		}
	}
	s.nextID++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if opts.Key != "" {
		s.keys[opts.Key] = j.id
	}
	j.enqueued = time.Now()
	j.span.StartChild("queue", j.enqueued)
	s.fq.Push(j.tenant, tn.Weight(), j)
	s.metrics.tenantQueueDepth.With(j.tenant).Set(int64(s.fq.TenantLen(j.tenant)))
	select {
	case s.ready <- struct{}{}:
	default:
		// The buffer already holds at least QueueSize tokens — more than
		// the items now queued — so a worker is guaranteed to wake for j.
	}
	s.metrics.jobsAccepted.Inc()
	s.metrics.tenantAdmitted.With(j.tenant).Inc()
	s.metrics.queueDepth.Add(1)
	s.gcLocked(time.Now())
	s.publishTraceLocked(j)
	return j.viewLocked(), false, nil
}

// countRejected is the single place submission rejections are counted, so
// no code path can double-count one rejection (the HTTP layer counts
// body/parse failures through it too, before Submit is ever reached).
func (s *Service) countRejected() { s.metrics.jobsRejected.Inc() }

// Job returns a snapshot of the identified job.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.viewLocked(), true
}

// JobTrace returns a deep copy of the identified job's span tree, or
// (nil, true) for a job that has none (jobs recovered from the journal
// lose their in-memory spans).
func (s *Service) JobTrace(id string) (*telemetry.Span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.span.Clone(), true
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].viewLocked())
	}
	return out
}

// Shutdown stops accepting new jobs, drains every already-accepted job
// (queued and in-flight), and waits for the workers to exit. It returns
// ctx's error if the drain does not finish in time.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ready)
		close(s.gcStop)
	}
	started := s.started
	s.mu.Unlock()
	if !started {
		s.hub.Close()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.hub.Close()
		return nil
	case <-ctx.Done():
		s.hub.Close()
		return ctx.Err()
	}
}

// worker pulls jobs until the queue is closed and drained.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.dequeue(context.Background())
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// dequeue blocks for the next job under weighted-fair order. At each pop it
// observes the job's queue sojourn (the CoDel controller's signal), sheds
// jobs whose client deadline already passed, and — when the controller says
// the queue delay has stayed above target — sheds the newest queued job of
// the heaviest-backlogged tenant, the work whose loss costs the least sunk
// investment and whose owner contributes most to the backlog. ok=false
// means ctx was canceled or the service is shutting down with the queue
// drained; tokens without items (left by sheds) are consumed silently.
func (s *Service) dequeue(ctx context.Context) (*job, bool) {
	for {
		s.mu.Lock()
		ready := s.ready
		s.mu.Unlock()
		select {
		case _, ok := <-ready:
			if !ok {
				// Closed and drained: every push's token was consumed, and
				// tokens >= items always holds, so the queue is empty.
				return nil, false
			}
		case <-ctx.Done():
			return nil, false
		}

		now := time.Now()
		s.mu.Lock()
		tname, j, ok := s.fq.Pop()
		if !ok {
			// Orphan token from a shed; the item is already gone.
			s.mu.Unlock()
			continue
		}
		s.metrics.queueDepth.Add(-1)
		s.metrics.tenantQueueDepth.With(tname).Set(int64(s.fq.TenantLen(tname)))
		sojourn := now.Sub(j.enqueued)
		s.metrics.queueSojourn.ObserveDuration(sojourn)
		var shed *job
		if s.cfg.ShedTarget > 0 && s.codel.OnDequeue(now, sojourn) {
			if ht, _, ok := s.fq.Heaviest(); ok {
				if sj, ok := s.fq.PopNewest(ht); ok {
					shed = sj
					s.metrics.queueDepth.Add(-1)
					s.metrics.tenantQueueDepth.With(ht).Set(int64(s.fq.TenantLen(ht)))
				}
			}
		}
		expired := !j.deadline.IsZero() && now.After(j.deadline)
		s.mu.Unlock()

		if shed != nil {
			s.failShed(shed, "overload",
				"service: shed under overload: queue delay above target")
		}
		if expired {
			s.failShed(j, "deadline", "service: client deadline expired before replay started")
			continue
		}
		return j, true
	}
}

// failShed records a queued job's terminal failure without running it:
// span, journal mark, quota release, and the per-tenant shed counter. The
// job's token (if any remains) is consumed as an orphan by a later dequeue.
func (s *Service) failShed(j *job, reason, msg string) {
	s.mu.Lock()
	j.finished = time.Now()
	j.status = StatusFailed
	j.errMsg = msg
	j.tr = nil
	j.ckpt = nil
	if j.span != nil {
		if qs := j.span.Child("queue"); qs != nil {
			qs.EndAt(j.finished)
		}
		j.span.SetError(msg)
		j.span.EndAt(j.finished)
	}
	s.releaseQuotaLocked(j)
	s.publishTraceLocked(j)
	s.metrics.tenantShed.With(j.tenant, reason).Inc()
	s.gcLocked(j.finished)
	s.mu.Unlock()
	s.metrics.jobsFailed.Inc()
	s.jobLogger(j).Warn("job shed before replay", "phase", "shed", "reason", reason, "tenant", j.tenant)
	s.mark(j, journal.StatusFailed, msg, nil)
	if s.cfg.Journal != nil {
		if rerr := s.cfg.Journal.RemoveCheckpoint(j.id); rerr != nil {
			s.metrics.journalError("remove")
			s.jobLogger(j).Error("checkpoint remove failed", "phase", "gc", "err", rerr)
		}
	}
}

// releaseQuotaLocked returns the job's tenant quota (slot + bytes) exactly
// once; the caller must hold s.mu.
func (s *Service) releaseQuotaLocked(j *job) {
	if !j.quotaHeld {
		return
	}
	j.quotaHeld = false
	s.tenants.Get(j.tenant).ReleaseJob(j.bytes)
}

// mark journals a lifecycle transition, logging (never failing the job
// on) journal errors: the in-memory state is already correct, and a lost
// terminal mark only means the job is re-analyzed after a crash.
func (s *Service) mark(j *job, status, errMsg string, result json.RawMessage) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Mark(j.id, status, errMsg, result); err != nil {
		s.metrics.journalError("mark")
		s.jobLogger(j).Error("journal mark failed", "phase", status, "err", err)
	}
}

// errStalled marks a replay whose progress heartbeats stopped advancing for
// longer than Config.StallTimeout. runJob retries such a job once, from
// its freshest checkpoint.
var errStalled = errors.New("service: replay stalled: no progress within the stall timeout")

// runJob replays one job's trace through a fresh analyzer and records the
// outcome on the job, its span tree, and the metrics. An analyzer panic is
// confined to this job: it is recovered, recorded as the job's failure with
// a stack fragment, and the worker goes on to its next job. A job carrying
// a checkpoint (from a previous life of the daemon) resumes from it; with
// Config.StallTimeout set, a watchdog cancels replays whose heartbeats stop
// and retries them once.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	if qs := j.span.Child("queue"); qs != nil {
		qs.EndAt(j.started)
	}
	if !j.enqueued.IsZero() {
		s.metrics.queueWait.ObserveDuration(j.started.Sub(j.enqueued))
	}
	tr := j.tr
	ckpt := j.ckpt
	hook := s.testHookRunning
	s.mu.Unlock()
	markStart := time.Now()
	s.mark(j, journal.StatusRunning, "", nil)
	markEnd := time.Now()
	if hook != nil {
		hook(j.id)
	}

	var (
		replayStart time.Time
		wall        time.Duration
		sumStart    time.Time
		sumDur      time.Duration
		summary     *tools.Summary
		rstats      trace.ReplayStats
	)
	attempt := func(ck *trace.Checkpoint) (err error) {
		// Each attempt gets its own replay span, closed in the deferred
		// epilogue below no matter how the attempt ends — success, failure,
		// watchdog cancellation, or panic. A job retried after a stall thus
		// shows one failed replay span per lost attempt instead of silently
		// dropping them from the tree.
		attemptStart := time.Now()
		var rs *telemetry.Span
		s.mu.Lock()
		if j.span != nil {
			rs = j.span.StartChild("replay", attemptStart)
		}
		s.mu.Unlock()
		defer func() {
			if r := recover(); r != nil {
				s.metrics.jobsPanicked.Inc()
				s.jobLogger(j).Error("analyzer panicked", "phase", "replay", "panic", fmt.Sprint(r))
				err = fmt.Errorf("analyzer panicked: %v\n%s", r, stackFragment())
				// The panic skipped the wall measurement; take it here so the
				// job view doesn't report zero replay time. A replayStart left
				// over from an earlier attempt is stale — re-anchor.
				if replayStart.Before(attemptStart) {
					replayStart = attemptStart
				}
				wall = time.Since(replayStart)
			}
			s.mu.Lock()
			if rs != nil {
				rs.SetCount("events", int64(j.events))
				rs.SetCount("epochs", int64(rstats.Epochs))
				rs.SetCount("maxEpochAccesses", int64(rstats.MaxEpochAccesses))
				if err != nil {
					rs.SetError(err.Error())
				}
				if !replayStart.Before(attemptStart) {
					// This attempt reached the replay: anchor the span to the
					// measured interval so its duration equals the wall time
					// the job view reports, exactly.
					rs.Start = replayStart
					rs.EndAt(replayStart.Add(wall))
				} else {
					// Failed before the replay began (bad tool, fault
					// injection): the span covers the attempt itself.
					rs.EndAt(time.Time{})
				}
			}
			s.publishTraceLocked(j)
			s.mu.Unlock()
		}()
		if err := faultinject.Fire("worker.slow"); err != nil {
			return err
		}
		if err := faultinject.Fire("worker.replay"); err != nil {
			return err
		}
		a, err := tools.New(j.tool)
		if err != nil {
			return err
		}
		if s.cfg.AnalyzerStats {
			if sp, ok := a.(tools.StatsProvider); ok {
				sp.EnableStats()
			}
		}

		// Resume from the checkpoint when the analyzer supports it and the
		// checkpoint matches this job's trace. A checkpoint that fails
		// validation or restore is discarded and the replay starts from
		// scratch: a checkpoint is an optimization, never a requirement.
		var start uint64
		if ck != nil && ck.Tool == j.tool && ck.NextEvent <= uint64(len(tr.Events)) {
			if cp, ok := a.(tools.Checkpointer); ok {
				if rerr := cp.RestoreState(ck.State); rerr != nil {
					s.metrics.checkpointErrors.Inc()
					s.jobLogger(j).Error("checkpoint restore failed; replaying from scratch",
						"phase", "replay", "err", rerr)
					// The failed restore may have half-applied; start clean.
					if a, err = tools.New(j.tool); err != nil {
						return err
					}
					if s.cfg.AnalyzerStats {
						if sp, ok := a.(tools.StatsProvider); ok {
							sp.EnableStats()
						}
					}
				} else {
					start = ck.NextEvent
					s.metrics.checkpointsRestored.Inc()
					s.jobLogger(j).Info("resuming from checkpoint",
						"phase", "replay", "resume_event", start, "events", len(tr.Events))
				}
			}
		}

		base := context.Background()
		cancelTimeout := func() {}
		if s.cfg.ReplayTimeout > 0 {
			base, cancelTimeout = context.WithTimeout(base, s.cfg.ReplayTimeout)
		}
		defer cancelTimeout()
		ctx, cancel := context.WithCancelCause(base)
		defer cancel(nil)

		opts := trace.DurableOptions{
			StartEvent: start,
			Progress:   trace.NewReplayProgress(),
		}
		if cp, ok := a.(tools.Checkpointer); ok && s.cfg.Journal != nil && s.cfg.CheckpointEvery > 0 {
			opts.CheckpointEvery = s.cfg.CheckpointEvery
			opts.Checkpoint = s.checkpointFunc(ctx, j, cp, uint64(len(tr.Events)))
		}

		replayStart = time.Now()
		if s.cfg.StallTimeout > 0 {
			rstats, err = s.replayWithWatchdog(ctx, cancel, j, tr, opts, a)
		} else {
			rstats, err = tr.ReplayDurable(ctx, opts, a)
		}
		wall = time.Since(replayStart)
		s.metrics.replaySeconds.ObserveDuration(wall)
		if err != nil {
			return err
		}
		s.metrics.eventsReplayed.Add(uint64(len(tr.Events)) - start)
		sumStart = time.Now()
		summary = tools.Summarize(a)
		sumDur = time.Since(sumStart)
		// The summary has captured findings and footprint; lease the shadow
		// slabs back to the arena for the next job. Clean path only — a
		// failed or panicked attempt just lets the GC take the analyzer.
		if rel, ok := a.(tools.Releaser); ok {
			rel.Release()
		}
		return nil
	}

	err := attempt(ckpt)
	if errors.Is(err, errStalled) {
		s.metrics.watchdogRetries.Inc()
		s.mu.Lock()
		retryCkpt := j.ckpt // freshest: the stalled attempt may have advanced it
		s.mu.Unlock()
		var resume uint64
		if retryCkpt != nil {
			resume = retryCkpt.NextEvent
		}
		delay := watchdogRetryDelay(s.cfg.StallTimeout)
		s.jobLogger(j).Warn("retrying stalled replay",
			"phase", "replay", "resume_event", resume, "delay", delay)
		time.Sleep(delay)
		err = attempt(retryCkpt)
	}

	var resultJSON json.RawMessage
	var encStart time.Time
	var encDur time.Duration
	if err == nil && summary != nil {
		encStart = time.Now()
		if b, merr := json.Marshal(summary); merr == nil {
			resultJSON = b
		}
		encDur = time.Since(encStart)
	}

	s.mu.Lock()
	j.finished = time.Now()
	j.wall = wall
	j.tr = nil   // release the trace's memory; only the summary is kept
	j.ckpt = nil // terminal: the checkpoint (and its spool file) are obsolete
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		j.result = summary
	}
	if j.span != nil {
		if s.cfg.Journal != nil {
			j.span.StartChild("mark", markStart).EndAt(markEnd)
		}
		if !sumStart.IsZero() {
			ss := j.span.StartChild("summarize", sumStart)
			ss.EndAt(sumStart.Add(sumDur))
			if summary != nil {
				ss.SetCount("issues", int64(summary.Issues))
			}
		}
		if !encStart.IsZero() {
			j.span.StartChild("encode", encStart).EndAt(encStart.Add(encDur))
		}
		if err != nil {
			j.span.SetError(err.Error())
		}
		j.span.EndAt(j.finished)
	}
	s.releaseQuotaLocked(j)
	s.publishTraceLocked(j)
	s.metrics.jobSeconds.ObserveDuration(j.finished.Sub(j.submitted))
	now := j.finished
	s.gcLocked(now)
	s.mu.Unlock()
	if err != nil {
		s.metrics.jobsFailed.Inc()
		s.mark(j, journal.StatusFailed, err.Error(), nil)
	} else {
		s.metrics.jobsCompleted.Inc()
		if summary != nil {
			s.metrics.recordJobStats(summary.Stats)
		}
		s.mark(j, journal.StatusDone, "", resultJSON)
	}
	if s.cfg.Journal != nil {
		if rerr := s.cfg.Journal.RemoveCheckpoint(j.id); rerr != nil {
			s.metrics.journalError("remove")
			s.jobLogger(j).Error("checkpoint remove failed", "phase", "gc", "err", rerr)
		}
	}
}

// watchdogRetryDelay is the full-jitter pause before a stalled replay's
// retry: uniform in [0, StallTimeout/2]. Stalls usually share a
// cause (an overloaded disk, a CPU-starved host, a slow shared dependency),
// so a fleet of jobs whose watchdogs all fired together must not retry in
// lockstep and re-create the very contention that stalled them.
func watchdogRetryDelay(stall time.Duration) time.Duration {
	if stall <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(stall/2) + 1))
}

// checkpointFunc builds the ReplayDurable checkpoint callback for one job:
// serialize the analyzer at the epoch boundary, write the frame into the
// spool, and remember the checkpoint on the job so a watchdog
// retry resumes from it. Serialization and spool failures are counted and
// logged but never fail the replay — a checkpoint is an optimization. A
// canceled context (watchdog, timeout) aborts the replay instead of
// writing a checkpoint the cancellation has already outdated.
func (s *Service) checkpointFunc(ctx context.Context, j *job, cp tools.Checkpointer, events uint64) func(uint64) error {
	return func(next uint64) error {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		raw, err := cp.CheckpointState()
		if err != nil {
			s.metrics.checkpointErrors.Inc()
			s.jobLogger(j).Error("checkpoint serialize failed", "phase", "replay", "err", err)
			return nil
		}
		ck := &trace.Checkpoint{
			JobID:     j.id,
			Tool:      j.tool,
			NextEvent: next,
			Events:    events,
			Created:   time.Now(),
			State:     raw,
		}
		if err := s.cfg.Journal.WriteCheckpoint(ck); err != nil {
			s.metrics.checkpointErrors.Inc()
			s.metrics.journalError("checkpoint")
			s.jobLogger(j).Error("checkpoint write failed", "phase", "replay", "err", err)
			return nil
		}
		s.metrics.checkpointsWritten.Inc()
		s.metrics.checkpointBytes.Observe(float64(len(raw)))
		s.mu.Lock()
		// Monotone: an abandoned (stalled) attempt racing a watchdog retry
		// must never regress the freshest checkpoint.
		if j.ckpt == nil || ck.NextEvent >= j.ckpt.NextEvent {
			j.ckpt = ck
		}
		s.mu.Unlock()
		if err := faultinject.Fire("worker.crash"); err != nil {
			// Simulated hard crash: exit the goroutine without unwinding, so
			// the journal keeps the job "running" exactly as SIGKILL would
			// and the next Recover resumes it from the checkpoint above.
			s.jobLogger(j).Error("fault injection: crashing after checkpoint", "phase", "replay", "err", err)
			runtime.Goexit()
		}
		return nil
	}
}

// replayWithWatchdog runs the replay on a child goroutine while sampling
// its progress heartbeats. If no heartbeat lands for Config.StallTimeout
// the replay is canceled with errStalled; a replay that then fails to
// acknowledge the cancellation within a further stall timeout is abandoned
// (its goroutine parks until the analyzer code returns, if ever) so the
// worker can move on. A panic on the replay goroutine is re-raised here so
// runJob's panic confinement sees it unchanged.
func (s *Service) replayWithWatchdog(ctx context.Context, cancel context.CancelCauseFunc, j *job, tr *trace.Trace, opts trace.DurableOptions, a tools.Analyzer) (trace.ReplayStats, error) {
	type result struct {
		stats    trace.ReplayStats
		err      error
		panicked bool
		panicVal any
	}
	resCh := make(chan result, 1)
	go func() {
		var res result
		defer func() { resCh <- res }()
		defer func() {
			if r := recover(); r != nil {
				res.panicked = true
				res.panicVal = r
			}
		}()
		res.stats, res.err = tr.ReplayDurable(ctx, opts, a)
	}()

	interval := s.cfg.StallTimeout / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	lastSum := opts.Progress.Sum()
	lastBeat := time.Now()
	for {
		select {
		case res := <-resCh:
			if res.panicked {
				panic(res.panicVal)
			}
			return res.stats, res.err
		case <-ticker.C:
			if sum := opts.Progress.Sum(); sum != lastSum {
				lastSum, lastBeat = sum, time.Now()
				continue
			}
			if time.Since(lastBeat) < s.cfg.StallTimeout {
				continue
			}
			// Stalled: no event was dispatched for a full stall timeout.
			s.metrics.jobsStalled.Inc()
			s.jobLogger(j).Warn("replay made no progress; canceling",
				"phase", "replay", "events_done", lastSum, "stall_timeout", s.cfg.StallTimeout)
			cancel(errStalled)
			select {
			case res := <-resCh:
				if res.panicked {
					panic(res.panicVal)
				}
				if res.err == nil {
					// The replay finished in a race with the cancellation.
					return res.stats, nil
				}
				return res.stats, fmt.Errorf("%w (%v)", errStalled, res.err)
			case <-time.After(s.cfg.StallTimeout):
				// The replay never reached a cancellation check: it is
				// wedged inside analyzer code. Abandon the goroutine — the
				// buffered channel lets it exit whenever it wakes up.
				s.jobLogger(j).Error("stalled replay did not acknowledge cancellation; abandoning it",
					"phase", "replay")
				return trace.ReplayStats{}, errStalled
			}
		}
	}
}

// stackFragment captures a bounded slice of the panicking goroutine's
// stack for the job's error message.
func stackFragment() string {
	buf := make([]byte, 4096)
	n := runtime.Stack(buf, false)
	frag := string(buf[:n])
	// Keep the panic site readable without shipping pages of runtime
	// frames into every job view.
	if lines := strings.SplitAfter(frag, "\n"); len(lines) > 12 {
		frag = strings.Join(lines[:12], "") + "\t...\n"
	}
	return frag
}

// GC applies the retention policy immediately (it also runs as jobs
// finish and on submissions). It reports how many jobs were evicted.
func (s *Service) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked(time.Now())
}

// gcLocked evicts terminal jobs beyond MaxFinishedJobs (oldest-finished
// first) or older than MaxJobAge, along with their spool files and
// idempotency keys. The caller must hold s.mu.
func (s *Service) gcLocked(now time.Time) int {
	maxJobs := s.cfg.MaxFinishedJobs
	if maxJobs < 0 && s.cfg.MaxJobAge <= 0 {
		return 0
	}
	finished := 0
	for _, id := range s.order {
		if j := s.jobs[id]; j.status == StatusDone || j.status == StatusFailed {
			finished++
		}
	}
	evicted := 0
	// s.order is submission order; finished jobs encountered first are
	// the oldest, so one pass evicts in the right order.
	excess := 0
	if maxJobs >= 0 {
		excess = finished - maxJobs
	}
	if excess <= 0 && s.cfg.MaxJobAge <= 0 {
		return 0
	}
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		terminal := j.status == StatusDone || j.status == StatusFailed
		evict := false
		if terminal {
			if excess > 0 {
				evict = true
				excess--
			} else if s.cfg.MaxJobAge > 0 && !j.finished.IsZero() && now.Sub(j.finished) > s.cfg.MaxJobAge {
				evict = true
			}
		}
		if !evict {
			keep = append(keep, id)
			continue
		}
		delete(s.jobs, id)
		if j.key != "" {
			delete(s.keys, j.key)
		}
		// Trace retention never outlives job retention: the evicted job's
		// trace leaves the store with it.
		if j.span != nil && j.span.TraceID != "" {
			s.traces.Remove(j.span.TraceID)
		}
		if s.cfg.Journal != nil {
			if err := s.cfg.Journal.Remove(id); err != nil {
				s.jobLogger(j).Error("journal remove failed", "phase", "gc", "err", err)
			}
		}
		evicted++
	}
	s.order = keep
	if evicted > 0 {
		s.metrics.jobsEvicted.Add(uint64(evicted))
	}
	return evicted
}
