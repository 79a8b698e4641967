// Package service is the arbalestd analysis daemon: a long-running HTTP
// service that accepts recorded tool-interface traces (the framed format
// trace.SaveFramed writes, or the JSON lines trace.Save writes), enqueues
// them on a bounded job queue, replays each through a fresh analyzer on a
// fixed worker pool, and serves the resulting diagnostics as structured
// JSON. It also hosts live stream sessions, whose trace arrives while the
// program runs: a session is a record in the same table as a job, with
// status live while its trace grows, and internal/stream keeps only its
// ingest.
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
// With a journal configured (Config.Journal), every accepted job and
// opened session is journaled to a spool directory before it is
// acknowledged: the trace first, then each lifecycle transition. After a
// crash, Recover reads the journal in one scan — jobs that never reached a
// terminal state are re-enqueued exactly once, live sessions resume from
// their checkpoint and spool, terminal records come back as history.
// Analyzer panics are confined to the job that caused them: the job fails
// with the panic value and a stack fragment while the worker and its pool
// survive. Retention limits (Config.MaxFinishedJobs, Config.MaxJobAge)
// garbage-collect finished jobs and sessions and their spool files so
// neither the in-memory table nor the spool directory grows without bound. Clients may send
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
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
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
	// Workers sizes the pool that takes jobs off the queue — how many jobs
	// analyze concurrently in this process (default GOMAXPROCS). With a
	// coordinator attached, each pool worker instead holds at most one job
	// for a lease while the fleet has a live worker.
	Workers int
	// QueueSize bounds the number of queued-but-not-running jobs
	// (default 64). A full queue rejects submissions rather than blocking.
	QueueSize int
	// MaxEvents caps a single job's trace length (default 1<<20 events).
	MaxEvents int
	// MaxBodyBytes caps a single upload's size (default 64 MiB).
	MaxBodyBytes int64
	// ReplayTimeout bounds one job's replay wall time, in the pool and on a
	// fleet worker's lease alike; the replay is canceled via context when it
	// expires (default 0 = unlimited).
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
	// MaxFinishedJobs bounds how many finished jobs and stream sessions,
	// together, are retained in memory and in the spool; the
	// oldest-finished are evicted past the limit (default 1024, negative =
	// unlimited).
	MaxFinishedJobs int
	// MaxJobAge, when positive, evicts finished jobs and sessions whose
	// finish time is older than this (checked when records finish, on
	// submissions and opens, and by the GCInterval timer).
	MaxJobAge time.Duration
	// Logger receives structured operational logging (journal mark
	// failures, analyzer panics, recovery problems); every job-scoped
	// line carries job_id, tool, and phase attributes. Nil discards.
	Logger *slog.Logger
	// AnalyzerStats, when true, enables per-job analyzer-level telemetry
	// (VSM state transitions, interval-index lookups, memo hits) on
	// analyzers that support it; the shadow CAS-retry count it reports is
	// always 0. The counts appear in each job's result and aggregate into
	// the /metrics registry. Off by default: the instrumented paths are
	// nil-checked plain counters with no measurable overhead when
	// disabled, but collection itself is opt-in.
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
	if c.MaxStreams == 0 {
		c.MaxStreams = 256
	}
	if c.StreamMaxBytes == 0 {
		c.StreamMaxBytes = 256 << 20
	}
	if c.StreamIdleTimeout == 0 {
		c.StreamIdleTimeout = 5 * time.Minute
	}
	if c.StreamReadTimeout == 0 {
		c.StreamReadTimeout = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Service is the analysis daemon's engine: the record table of jobs and
// stream sessions, bounded queue, and worker pool. Create with New, then
// (optionally) Recover, then Start; submit via Submit or the HTTP handler;
// stop with Shutdown, which drains accepted jobs.
type Service struct {
	cfg     Config
	metrics *Metrics
	// ingest holds the counters every stream session feeds.
	ingest *stream.Metrics
	// traces is the bounded distributed-trace store (nil when
	// Config.TraceCapacity is negative: tracing disabled).
	traces *telemetry.TraceStore
	// coord, when attached (AttachCoordinator), is offered every job the
	// pool dequeues and contributes its worker table to GET
	// /v1/fleet/status; nil means standalone mode.
	coord Coordinator

	// tenants is the tenant registry: identity, rate limits, quotas, and
	// WFQ weights. It has its own lock, always acquired after s.mu.
	tenants *tenant.Registry

	mu sync.Mutex
	// fq is the weighted-fair job queue, guarded by s.mu: the only job
	// queue in either role, feeding the pool's own runs and, through an
	// attached coordinator, lease grants. queued wakes one waiting pool
	// worker per push and all of them at Shutdown.
	fq     *tenant.FairQueue[*record]
	queued *sync.Cond
	codel  tenant.CoDel
	// records is the one table of jobs and sessions; order lists them by
	// admission, and finished lists the finished ones oldest-finished
	// first, the order retention evicts them in.
	records  map[string]*record
	order    []string
	finished []*record
	keys     map[string]string // idempotency key -> job id
	// nextID and nextStream number the job-N and stream-N ids; live counts
	// live sessions, those still being journaled at open included.
	nextID     uint64
	nextStream uint64
	live       int
	closed     bool
	recovered  bool

	wg      sync.WaitGroup
	started bool
	// stopping is canceled when Shutdown begins.
	stopping context.Context
	stop     context.CancelFunc

	// testHookRunning, when set before Start, is called after a job enters
	// StatusRunning, by its pool worker before the replay begins or by the
	// lease grant. Tests use it to hold workers in a known state.
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
		fq:      tenant.NewFairQueue[*record](),
		codel:   tenant.CoDel{Target: cfg.ShedTarget, Interval: cfg.ShedInterval},
		records: make(map[string]*record),
		keys:    make(map[string]string),
	}
	svc.queued = sync.NewCond(&svc.mu)
	svc.stopping, svc.stop = context.WithCancel(context.Background())
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
	svc.ingest = stream.NewMetrics(svc.metrics.reg)
	return svc
}

// Config returns the resolved configuration.
func (s *Service) Config() Config { return s.cfg }

// Metrics returns the service's counters.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Traces returns the bounded distributed-trace store, nil when tracing is
// disabled (Config.TraceCapacity < 0).
func (s *Service) Traces() *telemetry.TraceStore { return s.traces }

// Tenants returns the tenant registry.
func (s *Service) Tenants() *tenant.Registry { return s.tenants }

// jobLogger returns the configured logger scoped to one record, so every
// line it emits carries the job_id (a session's stream_id) and tool
// attributes — plus trace_id/span_id when the record is traced, which is
// what joins log lines against GET /v1/traces/{trace_id}.
func (s *Service) jobLogger(j *record) *slog.Logger {
	if j.sess != nil {
		return s.streamLogger(j)
	}
	return telemetry.LoggerWithTrace(s.cfg.Logger.With("job_id", j.id, "tool", j.tool), j.tc)
}

// streamLogger is jobLogger for a session, also before its sess is set.
func (s *Service) streamLogger(j *record) *slog.Logger {
	return telemetry.LoggerWithTrace(s.cfg.Logger.With("stream_id", j.id, "tool", j.tool), j.tc)
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
// service in one scan and puts each record back by the last status it
// journaled, which must belong to its kind: a pending or running job is
// re-enqueued exactly once, a live session is resumed from its freshest
// checkpoint and its spool and stays open for its client to resume, and a
// finished record (done or failed, or an evicted session) comes back as
// history with its result or error. Any other status is foreign to the
// record's kind — a session status marked on a job, a job status on a
// session, a legacy line's — and the record comes back as failed history
// under an error naming the status, counted as a recovery journal error.
// It must be called after New and before Start, at most once, and returns
// the number of re-enqueued jobs. Per-record journal damage (a corrupt
// meta file, a missing trace) is logged and skipped, never fatal: one bad
// spool entry must not keep the daemon down.
func (s *Service) Recover() (int, error) {
	if s.cfg.Journal == nil {
		return 0, errors.New("service: no journal configured")
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return 0, errors.New("service: Recover must be called before Start")
	}
	if s.recovered {
		s.mu.Unlock()
		return 0, errors.New("service: Recover called twice")
	}
	s.recovered = true
	s.mu.Unlock()
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
	if rstats.TruncatedRecords > 0 {
		s.metrics.journalTruncated.Add(uint64(rstats.TruncatedRecords))
		s.cfg.Logger.Warn("journal recovery dropped torn or corrupt meta records",
			"phase", "recovery", "records", rstats.TruncatedRecords)
	}
	if rstats.DroppedCheckpoints > 0 {
		s.metrics.checkpointErrors.Add(uint64(rstats.DroppedCheckpoints))
		s.cfg.Logger.Warn("journal recovery dropped corrupt checkpoints; affected jobs and sessions replay from their traces",
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

	requeued, resumed := 0, 0
	for _, rj := range recovered {
		j := &record{
			id:        rj.ID,
			tool:      rj.Tool,
			key:       rj.Key,
			tenant:    tenant.Canonical(rj.Tenant),
			status:    Status(rj.Status),
			deadline:  rj.Deadline,
			submitted: rj.Submitted,
			started:   rj.Started,
			finished:  rj.Finished,
			errMsg:    rj.Error,
			events:    rj.Events,
			settled:   true,
		}
		live := false
		switch st := rj.Status; {
		case st == journal.StatusDone || st == journal.StatusFailed || (rj.Session && st == journal.StatusEvicted):
			if len(rj.Result) > 0 {
				var sum tools.Summary
				if err := json.Unmarshal(rj.Result, &sum); err == nil {
					j.result = &sum
				} else {
					s.jobLogger(j).Error("recovered result unmarshal failed",
						"phase", "recovery", "err", err)
				}
			}
		case rj.Session && st == journal.StatusLive:
			// Outside s.mu: the session re-feeds its spool here.
			if live = s.resumeStream(j, rj); live {
				resumed++
			}
		case !rj.Session && (st == journal.StatusPending || st == journal.StatusRunning):
			j.status = StatusPending
			j.started = time.Time{}
			j.tr = rj.Trace
			j.ckpt = rj.Checkpoint
		default:
			kind := "job"
			if rj.Session {
				kind = "stream session"
			}
			s.metrics.journalError("recover")
			s.recoverFailed(j, fmt.Sprintf("recovery: journaled status %q is not a %s status", st, kind))
		}
		if rj.Session && j.sess == nil {
			j.sess = stream.Settled(j.id, stream.Status(j.status), j.result, uint64(rj.Events), rj.Accepted)
		}

		s.mu.Lock()
		switch {
		case j.status == StatusPending:
			// Back to the queue, exactly once, re-attributed to its tenant
			// without quota enforcement (an accepted job must never be
			// dropped at restart, even past the queue bound); the spool does
			// not record upload sizes, so recovered jobs hold a slot but no
			// bytes.
			j.enqueued = time.Now()
			t := s.tenants.Get(j.tenant)
			t.Adopt(0)
			j.quotaHeld = true
			s.restoreTraceLocked(j, rj.Traceparent)
			s.pushLocked(j, t.Weight(), false)
			requeued++
			s.metrics.jobsRecovered.Inc()
			if j.ckpt != nil {
				s.jobLogger(j).Info("job re-enqueued from journal with checkpoint",
					"phase", "recovery", "resume_event", j.ckpt.NextEvent)
			} else {
				s.jobLogger(j).Info("job re-enqueued from journal", "phase", "recovery")
			}
		case live:
			s.live++
			s.metrics.streamsRecovered.Inc()
			s.metrics.streamsActive.Set(int64(s.live))
		case j.terminal():
			s.finished = append(s.finished, j)
		}
		s.records[j.id] = j
		s.order = append(s.order, j.id)
		if j.key != "" {
			s.keys[j.key] = j.id
		}
		prefix, next := "job-", &s.nextID
		if rj.Session {
			prefix, next = "stream-", &s.nextStream
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(rj.ID, prefix), 10, 64); err == nil && n >= *next {
			*next = n + 1
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	slices.SortStableFunc(s.finished, func(a, b *record) int { return a.finished.Compare(b.finished) })
	s.mu.Unlock()
	if resumed > 0 {
		s.cfg.Logger.Info("recovered live streaming sessions", "phase", "recovery", "sessions", resumed)
	}
	return requeued, nil
}

// recoverFailed turns a record that recovery cannot resume into failed
// history, and journals it so, so the next life reads it the same way.
func (s *Service) recoverFailed(j *record, msg string) {
	j.status, j.errMsg, j.finished = StatusFailed, msg, time.Now()
	if j.span != nil {
		j.span.SetError(msg)
		j.span.EndAt(j.finished)
		s.publishTraceLocked(j)
	}
	s.jobLogger(j).Error("recovered record failed", "phase", "recovery", "err", msg)
	s.mark(j, journal.StatusFailed, outcome{err: msg})
}

// traceContext decides a new record's trace identity from the client's
// traceparent: a parseable one joins the client's trace under a new span,
// keeping its sampling verdict so every process agrees, and none mints a
// fresh trace subject to head sampling. parent is the client's span id.
// Both are zero with tracing disabled.
func (s *Service) traceContext(traceparent string) (tc telemetry.TraceContext, parent string) {
	if s.traces == nil {
		return tc, ""
	}
	if ptc, ok := telemetry.ParseTraceparent(traceparent); ok {
		return telemetry.TraceContext{TraceID: ptc.TraceID, SpanID: telemetry.NewSpanID(), Sampled: ptc.Sampled}, ptc.SpanID
	}
	if s.traces.Admit() {
		return telemetry.NewTraceContext(), ""
	}
	return tc, ""
}

// identify gives a record its trace context and root span: "job" for a
// job, which always has one (its trace endpoint serves it untraced too),
// and "stream" for a session, which has one only when sampled. A sampled
// root is identified under parent, the client's span ("" once
// recovered). Runs before the record is published.
func (j *record) identify(session bool, tc telemetry.TraceContext, parent string, start time.Time) {
	j.tc = tc
	switch {
	case !session:
		j.span = telemetry.NewSpan("job", start)
	case tc.Sampled:
		j.span = telemetry.NewSpan("stream", start)
		j.span.SetAttr("tool", j.tool)
		j.span.SetAttr("stream_id", j.id)
	default:
		return
	}
	if tc.Sampled {
		j.span.Identify(tc, parent)
	}
}

// restoreTraceLocked rejoins a recovered record to the trace it was
// admitted under: the journal round-trips the record's own traceparent, so
// a re-enqueued job's resumed replay, any lease a coordinator grants, and a
// resumed session's ingest land in the same trace, and a session's
// snapshots replace its pre-crash tree. The sampling verdict rode along in
// the flags. Only the record's own identity is journaled: a parent link to
// the client's span does not survive the crash, which costs the root its
// ParentID and nothing else. A job's root gets a "queue" child and is
// published; a session's is published once its spool is re-fed. The
// caller holds s.mu or owns the unpublished record.
func (s *Service) restoreTraceLocked(j *record, traceparent string) {
	ptc, ok := telemetry.ParseTraceparent(traceparent)
	if !ok || s.traces == nil {
		ptc = telemetry.TraceContext{}
	}
	j.identify(j.status == statusLive, ptc, "", j.submitted)
	if j.status == StatusPending {
		j.span.SetCount("events", int64(j.events))
		j.span.StartChild("queue", j.enqueued)
		s.publishTraceLocked(j)
	}
}

// Start launches the worker pool. It is a no-op if already started. A
// coordinator must be attached before Start, so that recovered jobs wait
// out its reconnect grace instead of running here.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(s.coord)
	}
	if s.cfg.GCInterval > 0 || s.cfg.StreamIdleTimeout > 0 {
		s.wg.Add(1)
		go s.sweepLoop()
	}
}

// sweepLoop is the service's one background goroutine: every GCInterval it
// runs the retention GC, and every quarter of StreamIdleTimeout it evicts
// idle sessions; either is off when its setting is not positive. Each
// first firing is staggered by a uniform random fraction of its interval:
// a fleet of daemons restarted in unison (deploy, power event) must not all
// sweep their spool directories at the same instant and stampede the
// shared disk.
func (s *Service) sweepLoop() {
	defer s.wg.Done()
	idleEvery := s.cfg.StreamIdleTimeout / 4
	if s.cfg.StreamIdleTimeout > 0 && idleEvery <= 0 {
		idleEvery = time.Second
	}
	gc, idle := staggered(s.cfg.GCInterval), staggered(idleEvery)
	defer gc.Stop()
	defer idle.Stop()
	for {
		select {
		case <-s.stopping.Done():
			return
		case <-gc.C:
			s.GC()
			gc.Reset(s.cfg.GCInterval)
		case now := <-idle.C:
			s.evictIdle(now)
			idle.Reset(idleEvery)
		}
	}
}

// staggered returns a timer that first fires at a uniform random point
// within every, or a stopped one, which never fires, when every is not
// positive.
func staggered(every time.Duration) *time.Timer {
	if every <= 0 {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	}
	return time.NewTimer(time.Duration(rand.Int64N(int64(every) + 1)))
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
	if err := tools.Known(opts.Tool); err != nil {
		s.countRejected()
		return JobView{}, false, err
	}
	if tr.Len() > s.cfg.MaxEvents {
		s.countRejected()
		return JobView{}, false, fmt.Errorf("%w: %d events > limit %d", ErrTooLarge, tr.Len(), s.cfg.MaxEvents)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.countRejected()
		return JobView{}, false, ErrShuttingDown
	}
	if opts.Key != "" {
		if id, ok := s.keys[opts.Key]; ok {
			if j, ok := s.records[id]; ok {
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
	j := &record{
		id:        fmt.Sprintf("job-%d", s.nextID),
		tool:      opts.Tool,
		key:       opts.Key,
		tenant:    tname,
		deadline:  opts.Deadline,
		bytes:     opts.Bytes,
		quotaHeld: true,
		status:    StatusPending,
		submitted: time.Now(),
		events:    tr.Len(),
		tr:        tr,
	}
	tc, parent := s.traceContext(opts.Traceparent)
	j.identify(false, tc, parent, opts.Start)
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
			ID: j.id, Tool: j.tool, Key: j.key, Traceparent: j.traceparent(), Tenant: j.tenant,
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
	s.records[j.id] = j
	s.order = append(s.order, j.id)
	if opts.Key != "" {
		s.keys[opts.Key] = j.id
	}
	j.enqueued = time.Now()
	j.span.StartChild("queue", j.enqueued)
	s.pushLocked(j, tn.Weight(), false)
	s.metrics.jobsAccepted.Inc()
	s.metrics.tenantAdmitted.With(j.tenant).Inc()
	s.gcLocked(time.Now())
	s.publishTraceLocked(j)
	return j.viewLocked(), false, nil
}

// countRejected is the single place submission rejections are counted, so
// no code path can double-count one rejection (the HTTP layer counts
// body/parse failures through it too, before Submit is ever reached).
func (s *Service) countRejected() { s.metrics.jobsRejected.Inc() }

// jobLocked returns the identified job, false for unknown ids and
// sessions. The caller holds s.mu.
func (s *Service) jobLocked(id string) (*record, bool) {
	j, ok := s.records[id]
	return j, ok && j.sess == nil
}

// Job returns a snapshot of the identified job.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(id)
	if !ok {
		return JobView{}, false
	}
	return j.viewLocked(), true
}

// JobTrace returns a deep copy of the identified job's span tree, or
// (nil, true) for a job that has none (jobs recovered from the journal as
// history lose their in-memory spans; re-enqueued ones get a new root
// under their journaled trace).
func (s *Service) JobTrace(id string) (*telemetry.Span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(id)
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
		if j := s.records[id]; j.sess == nil {
			out = append(out, j.viewLocked())
		}
	}
	return out
}

// Shutdown stops accepting new jobs and sessions, drains every
// already-accepted job (queued and in-flight), waits for the workers to
// exit, and then closes every live session's spool, leaving the sessions
// journaled live so the next life resumes them and their clients resume
// where they left off. It returns ctx's error if the drain does not finish
// in time. With a coordinator attached whose fleet has a live worker, jobs
// not yet leased are not drained: they stay journaled for the next life,
// and leased ones are left to their workers. Call it after the HTTP server
// has drained its handlers.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.stop()
		s.queued.Broadcast()
	}
	started := s.started
	s.mu.Unlock()
	defer s.releaseSessions()
	if !started {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseSessions closes every live session's spool and refuses it further
// ingest.
func (s *Service) releaseSessions() {
	s.mu.Lock()
	var live []*stream.Session
	for _, id := range s.order {
		if j := s.records[id]; j.status == statusLive {
			live = append(live, j.sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range live {
		sess.Release()
	}
}

// worker is one goroutine of the pool, the only local pool in either role.
// It takes jobs off the fair queue until the queue is closed and drained.
// With a coordinator attached it first offers each job to the fleet; a job
// the fleet does not take (no live worker, no restart grace) runs here,
// exactly as in standalone mode.
func (s *Service) worker(coord Coordinator) {
	defer s.wg.Done()
	for {
		j, ok := s.dequeue()
		if !ok {
			return
		}
		if coord != nil && coord.Handoff(s.stopping, dist.JobSpec{
			ID: j.id, Tool: j.tool, Events: j.events, Stats: s.cfg.AnalyzerStats,
			ReplayTimeout: s.cfg.ReplayTimeout,
		}) {
			continue
		}
		s.runJob(j)
	}
}

// pushLocked queues j — at the head of its tenant's line when front is set
// — and wakes one waiting pool worker, so every queued job has a worker
// woken for it. The caller holds s.mu.
func (s *Service) pushLocked(j *record, weight int, front bool) {
	if front {
		s.fq.PushFront(j.tenant, weight, j)
	} else {
		s.fq.Push(j.tenant, weight, j)
	}
	s.metrics.queueDepth.Add(1)
	s.metrics.tenantQueueDepth.With(j.tenant).Set(int64(s.fq.TenantLen(j.tenant)))
	s.queued.Signal()
}

// dequeue blocks for the next job under weighted-fair order. At each pop it
// observes the job's queue sojourn (the CoDel controller's signal), sheds
// jobs whose client deadline already passed, and — when the controller says
// the queue delay has stayed above target — sheds the newest queued job of
// the heaviest-backlogged tenant, the work whose loss costs the least sunk
// investment and whose owner contributes most to the backlog. ok=false
// means the service is shutting down with the queue drained.
func (s *Service) dequeue() (*record, bool) {
	s.mu.Lock()
	for {
		for s.fq.Len() == 0 {
			if s.closed {
				s.mu.Unlock()
				return nil, false
			}
			s.queued.Wait()
		}
		now := time.Now()
		tname, j, _ := s.fq.Pop()
		s.metrics.queueDepth.Add(-1)
		s.metrics.tenantQueueDepth.With(tname).Set(int64(s.fq.TenantLen(tname)))
		sojourn := now.Sub(j.enqueued)
		s.metrics.queueSojourn.ObserveDuration(sojourn)
		var shed *record
		if s.cfg.ShedTarget > 0 && s.codel.OnDequeue(now, sojourn) {
			if ht, _, ok := s.fq.Heaviest(); ok {
				if sj, ok := s.fq.PopNewest(ht); ok {
					shed = sj
					s.metrics.queueDepth.Add(-1)
					s.metrics.tenantQueueDepth.With(ht).Set(int64(s.fq.TenantLen(ht)))
				}
			}
		}
		s.mu.Unlock()

		if shed != nil {
			s.failShed(shed, "overload",
				"service: shed under overload: queue delay above target")
		}
		if !s.shedIfExpired(j, now) {
			return j, true
		}
		s.mu.Lock()
	}
}

// shedIfExpired sheds j (reason deadline) when its client deadline passed
// before now, and reports whether it did. A job is checked when it leaves
// the queue and again when it is leased, since a pool worker may hold it
// for a lease a while in between. The deadline is fixed at submit.
func (s *Service) shedIfExpired(j *record, now time.Time) bool {
	if j.deadline.IsZero() || !now.After(j.deadline) {
		return false
	}
	s.failShed(j, "deadline", "service: client deadline expired before replay started")
	return true
}

// failShed ends a queued job without running it: the terminal bookkeeping
// of finish, plus the per-tenant shed counter.
func (s *Service) failShed(j *record, reason, msg string) {
	closeQueue := func(root *telemetry.Span) {
		if qs := root.Child("queue"); qs != nil {
			qs.EndAt(time.Time{})
		}
	}
	if s.finish(j, outcome{err: msg}, closeQueue) != nil {
		return
	}
	s.metrics.tenantShed.With(j.tenant, reason).Inc()
	s.jobLogger(j).Warn("job shed before replay", "phase", "shed", "reason", reason, "tenant", j.tenant)
}

// releaseQuotaLocked returns the record's tenant quota — a job's slot and
// upload bytes, a session's stream slot and accepted bytes — exactly once;
// the caller must hold s.mu.
func (s *Service) releaseQuotaLocked(j *record) {
	if !j.quotaHeld {
		return
	}
	j.quotaHeld = false
	t := s.tenants.Get(j.tenant)
	if j.sess == nil {
		t.ReleaseJob(j.bytes)
		return
	}
	t.ReleaseStream()
	t.ReleaseBytes(j.bytes)
}

// mark journals a lifecycle transition, a session's with its counts,
// logging (never failing the job on) journal errors: the in-memory state is
// already correct, and a lost terminal mark only means the job is
// re-analyzed after a crash.
func (s *Service) mark(j *record, status string, o outcome) {
	if s.cfg.Journal == nil {
		return
	}
	var err error
	if j.sess != nil {
		err = s.cfg.Journal.MarkSession(j.id, status, o.err, o.result, o.events, o.bytes)
	} else {
		err = s.cfg.Journal.Mark(j.id, status, o.err, o.result)
	}
	if err != nil {
		s.metrics.journalError("mark")
		s.jobLogger(j).Error("journal mark failed", "phase", status, "err", err)
	}
}

// errStalled marks a replay whose progress heartbeats stopped advancing for
// longer than Config.StallTimeout. runJob retries such a job once, from
// its freshest checkpoint.
var errStalled = errors.New("service: replay stalled: no progress within the stall timeout")

// runJob replays one job's trace through a fresh analyzer run and records
// the outcome on the job, its span tree, and the metrics. An analyzer panic
// is confined to this job by the run: it comes back as the job's failure,
// with a stack fragment, and the worker goes on to its next job. A job
// carrying a checkpoint (from a previous life of the daemon) resumes from
// it; with Config.StallTimeout set, a watchdog cancels replays whose
// heartbeats stop and retries them once.
func (s *Service) runJob(j *record) {
	markStart, markEnd, ok := s.startRunning(j)
	if !ok {
		return
	}

	var (
		wall     time.Duration
		sumStart time.Time
		sumDur   time.Duration
		summary  *tools.Summary
		rstats   trace.ReplayStats
	)
	attempt := func() (err error) {
		// Each attempt gets its own replay span, closed in the deferred
		// epilogue below no matter how the attempt ends — success, failure,
		// watchdog cancellation, or a confined panic. A job retried after a
		// stall thus shows one failed replay span per lost attempt instead
		// of silently dropping them from the tree. Each attempt resumes from
		// the freshest checkpoint: a stalled attempt may have advanced it.
		attemptStart := time.Now()
		var replayStart time.Time
		var rs *telemetry.Span
		s.mu.Lock()
		tr, ck := j.tr, j.ckpt
		if j.span != nil {
			rs = j.span.StartChild("replay", attemptStart)
		}
		s.mu.Unlock()
		defer func() {
			if errors.Is(err, tools.ErrPanicked) {
				s.metrics.jobsPanicked.Inc()
				s.jobLogger(j).Error("analyzer panicked", "phase", "replay", "err", err)
			}
			s.mu.Lock()
			if rs != nil {
				rs.SetCount("events", int64(j.events))
				rs.SetCount("epochs", int64(rstats.Epochs))
				rs.SetCount("maxEpochAccesses", int64(rstats.MaxEpochAccesses))
				if err != nil {
					rs.SetError(err.Error())
				}
				if !replayStart.IsZero() {
					// This attempt reached the replay: anchor the span to the
					// measured interval so its duration equals the wall time
					// the job view reports, exactly.
					rs.Start = replayStart
					rs.EndAt(replayStart.Add(wall))
				} else {
					// Failed before the replay began (fault injection): the
					// span covers the attempt itself.
					rs.EndAt(time.Time{})
				}
			}
			s.publishTraceLocked(j)
			s.mu.Unlock()
		}()
		if err := faultinject.Fire("worker.slow"); err != nil {
			return err
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		ro := tools.RunOptions{
			Options: tools.Options{Stats: s.cfg.AnalyzerStats},
			ID:      j.id, From: ck, Timeout: s.cfg.ReplayTimeout,
			Checkpoint: s.checkpointFunc(ctx, j),
			Progress:   trace.NewReplayProgress(),
		}
		if s.cfg.Journal != nil {
			ro.CheckpointEvery = s.cfg.CheckpointEvery
		}
		run, err := tools.NewRun(j.tool, ro)
		if err != nil {
			return err
		}
		if run.RestoreErr != nil {
			s.metrics.checkpointErrors.Inc()
			s.jobLogger(j).Error("checkpoint restore failed; replaying from scratch",
				"phase", "replay", "err", run.RestoreErr)
		} else if run.Start > 0 {
			s.metrics.checkpointsRestored.Inc()
			s.jobLogger(j).Info("resuming from checkpoint",
				"phase", "replay", "resume_event", run.Start, "events", tr.Len())
		}

		replayStart = time.Now()
		if s.cfg.StallTimeout > 0 {
			rstats, err = s.replayWithWatchdog(ctx, cancel, j, run, tr, ro.Progress)
		} else {
			rstats, err = run.Replay(ctx, tr)
		}
		wall = time.Since(replayStart)
		s.metrics.replaySeconds.ObserveDuration(wall)
		if err == nil {
			s.metrics.eventsReplayed.Add(uint64(tr.Len()) - run.Start)
			sumStart = time.Now()
			summary, err = run.Finish()
			sumDur = time.Since(sumStart)
		}
		return err
	}

	err := attempt()
	if errors.Is(err, errStalled) {
		s.metrics.watchdogRetries.Inc()
		s.mu.Lock()
		retryCkpt := j.ckpt
		s.mu.Unlock()
		var resume uint64
		if retryCkpt != nil {
			resume = retryCkpt.NextEvent
		}
		delay := watchdogRetryDelay(s.cfg.StallTimeout)
		s.jobLogger(j).Warn("retrying stalled replay",
			"phase", "replay", "resume_event", resume, "delay", delay)
		time.Sleep(delay)
		err = attempt()
	}

	o := outcome{wall: wall}
	var encStart time.Time
	var encDur time.Duration
	if err != nil {
		o.err = err.Error()
	} else {
		o.summary = summary
		encStart = time.Now()
		if b, merr := json.Marshal(summary); merr == nil {
			o.result = b
		}
		encDur = time.Since(encStart)
	}
	s.finish(j, o, func(root *telemetry.Span) {
		if !markStart.IsZero() {
			root.StartChild("mark", markStart).EndAt(markEnd)
		}
		if !sumStart.IsZero() {
			ss := root.StartChild("summarize", sumStart)
			ss.EndAt(sumStart.Add(sumDur))
			if summary != nil {
				ss.SetCount("issues", int64(summary.Issues))
			}
		}
		if !encStart.IsZero() {
			root.StartChild("encode", encStart).EndAt(encStart.Add(encDur))
		}
	})
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

// checkpointFunc builds the run's checkpoint callback for one job: take
// the run's checkpoint at the epoch boundary and hand it to
// storeCheckpoint, which keeps it for a watchdog retry and spools it.
// Serialization and spool failures are counted and logged but never fail
// the replay — a checkpoint is an optimization. A canceled context
// (watchdog) aborts the replay instead of writing a checkpoint the
// cancellation has already outdated.
func (s *Service) checkpointFunc(ctx context.Context, j *record) func(func() (*trace.Checkpoint, error)) error {
	return func(take func() (*trace.Checkpoint, error)) error {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		ck, err := take()
		if err != nil {
			s.metrics.checkpointErrors.Inc()
			s.jobLogger(j).Error("checkpoint serialize failed", "phase", "replay", "err", err)
			return nil
		}
		if !s.storeCheckpoint(j, ck) {
			return nil
		}
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
// worker can move on. The run confines a panic on the replay goroutine to
// the error it returns.
func (s *Service) replayWithWatchdog(ctx context.Context, cancel context.CancelCauseFunc, j *record, run *tools.Run, tr *trace.Trace, progress *trace.ReplayProgress) (trace.ReplayStats, error) {
	type result struct {
		stats trace.ReplayStats
		err   error
	}
	resCh := make(chan result, 1)
	go func() {
		var res result
		defer func() { resCh <- res }()
		res.stats, res.err = run.Replay(ctx, tr)
	}()

	interval := s.cfg.StallTimeout / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	lastSum := progress.Sum()
	lastBeat := time.Now()
	for {
		select {
		case res := <-resCh:
			return res.stats, res.err
		case <-ticker.C:
			if sum := progress.Sum(); sum != lastSum {
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
				if res.err == nil || errors.Is(res.err, tools.ErrPanicked) {
					// The replay finished, or panicked, in a race with the
					// cancellation.
					return res.stats, res.err
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

// GC applies the retention policy immediately (it also runs as records
// finish, on submissions and opens, and on the GCInterval timer). It
// reports how many jobs and sessions were evicted.
func (s *Service) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked(time.Now())
}

// gcLocked evicts finished jobs and sessions beyond MaxFinishedJobs,
// oldest-finished first, and those finished longer than MaxJobAge ago,
// along with their spool files, trace-store entries and idempotency keys.
// s.finished is in finish order, so both bounds take records off its
// front, up to the first one not yet settled. The caller must hold s.mu.
func (s *Service) gcLocked(now time.Time) int {
	n := 0
	for ; n < len(s.finished) && s.finished[n].settled; n++ {
		overCap := s.cfg.MaxFinishedJobs >= 0 && len(s.finished)-n > s.cfg.MaxFinishedJobs
		aged := s.cfg.MaxJobAge > 0 && now.Sub(s.finished[n].finished) > s.cfg.MaxJobAge
		if !overCap && !aged {
			break
		}
		j := s.finished[n]
		delete(s.records, j.id)
		if j.key != "" {
			delete(s.keys, j.key)
		}
		// Trace retention never outlives record retention: the evicted
		// record's trace leaves the store with it.
		if j.span != nil && j.span.TraceID != "" {
			s.traces.Remove(j.span.TraceID)
		}
		if s.cfg.Journal != nil {
			if err := s.cfg.Journal.Remove(j.id); err != nil {
				s.jobLogger(j).Error("journal remove failed", "phase", "gc", "err", err)
			}
		}
	}
	if n == 0 {
		return 0
	}
	s.finished = slices.Delete(s.finished, 0, n)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return s.records[id] == nil })
	s.metrics.jobsEvicted.Add(uint64(n))
	return n
}
