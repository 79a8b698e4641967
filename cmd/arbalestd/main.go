// Command arbalestd is the ARBALEST analysis daemon: it accepts recorded
// tool-interface traces over HTTP, replays each through a fresh analysis
// tool on a bounded worker pool, and serves the diagnostics as JSON.
//
// Usage:
//
//	arbalestd [-addr :8321] [-workers N] [-queue N]
//	          [-max-events N] [-max-body BYTES] [-timeout DUR] [-spool DIR]
//	          [-retain-jobs N] [-retain-age DUR] [-checkpoint-every N]
//	          [-debug-addr ADDR]
//	          [-max-streams N] [-stream-max-bytes BYTES]
//	          [-stream-idle-timeout DUR] [-stream-read-timeout DUR]
//	          [-analyzer-stats] [-version]
//	          [-trace-capacity N] [-trace-sample F]
//	          [-role standalone|coordinator|worker] [-coordinator-url URL]
//	          [-lease-ttl DUR] [-worker-id ID] [-poll-wait DUR]
//	          [-tenants SPEC] [-tenant-defaults LIMITS]
//	          [-shed-target DUR] [-gc-interval DUR]
//
// -workers sizes the job pool (how many traces analyze concurrently in this
// process), in the standalone and coordinator roles alike; each job replays
// on one goroutine. -timeout is the one bound on a job's replay, in the pool
// and on a worker's lease alike: at the deadline the job fails, without
// waiting for a replay that has not returned, and is not retried.
//
// # Distributed operation
//
// -role coordinator serves the normal API plus /v1/fleet/ and leases
// accepted jobs to registered analysis workers as they poll. Jobs wait in
// the same bounded queue as in standalone mode: each -workers pool
// goroutine holds one for the next lease poll while a worker is live, and
// runs it itself when none is, so a coordinator alone behaves like a
// standalone daemon. Leases last -lease-ttl without a heartbeat, then the
// job is rescheduled from its freshest streamed checkpoint; every lease
// carries a fencing token so a partitioned worker that comes back cannot
// corrupt the rescheduled job. -role worker runs the agent side: it
// registers with -coordinator-url, long-polls leases for -poll-wait,
// replays each job while streaming epoch-barrier checkpoints back, and
// posts the result. Workers hold no durable state and may be killed at
// any time. See README "Distributed operation".
//
// # Multi-tenancy and overload
//
// Requests carry their tenant identity in the X-Arbalest-Tenant header
// (`arbalest -tenant NAME`); an absent header is the "default" tenant.
// -tenants seeds per-tenant weights, token-bucket admission rates, and
// concurrent-job/stream/in-flight-byte quotas, semicolon-separated:
//
//	-tenants 'alice:weight=4,rate=50,jobs=16;bob:rate=5,burst=10,bytes=67108864'
//
// -tenant-defaults sets the limits unknown tenants start with (same
// key=value grammar, no name). Dispatch is weighted-fair per tenant — one
// job queue feeds local runs and, under -role coordinator, lease grants —
// so one tenant's backlog cannot starve another's. -shed-target arms
// CoDel-style overload shedding: when queue delay stays above the target
// for a full interval (10x the target), the newest queued job of the
// heaviest-backlogged tenant is shed before replay. A client X-Arbalest-Deadline header ("30s" or
// RFC 3339; `arbalest -deadline`) likewise sheds jobs whose deadline
// already passed when they reach the front of the queue. Limits are
// live-tunable (GET /v1/tenants, PUT /v1/tenants/<name>), journaled with
// -spool so tuning survives restarts, and surfaced as arbalestd_tenant_*
// metrics plus per-tenant saturation detail on /readyz. Workers guard
// their coordinator RPCs with a circuit breaker (open after 5 consecutive
// failures, for one -poll-wait) so a struggling coordinator sees
// fast-failing workers instead of a retry storm. See README
// "Multi-tenancy and overload behavior".
//
// # Distributed tracing
//
// Every accepted job and stream carries a W3C trace context (a
// client-supplied traceparent header is honored); the coordinator forwards
// it inside each lease grant and workers ship their span trees back
// piggybacked on heartbeats and results, so a job analyzed across several
// processes — including a crash-mid-epoch reschedule — reads as one merged
// tree at GET /v1/traces/<id>. -trace-capacity bounds the in-memory trace
// store, -trace-sample head-samples new traces, and log lines on traced
// paths carry trace_id/span_id for correlation. See README "Distributed
// tracing & fleet status".
//
// API:
//
//	POST /v1/jobs?tool=arbalest   body: a trace in either encoding:
//	                              CRC-framed (trace.SaveFramed; version 2,
//	                              binary payloads, parses ~10x faster; a
//	                              version-1 JSON-payload body still loads)
//	                              or JSON lines (trace.Save)
//	GET  /v1/jobs                 list jobs
//	GET  /v1/jobs/<id>            job status + result
//	GET  /v1/jobs/<id>/trace      per-job span tree (also at /jobs/<id>/trace)
//	GET  /v1/traces               list stored distributed traces
//	GET  /v1/traces/<id>          one merged cross-process trace tree
//	                              (?format=otlp for OTLP/JSON)
//	GET  /v1/traces/export        every stored trace as one OTLP/JSON export
//	GET  /v1/fleet/status         federated fleet status (worker liveness,
//	                              lease/fencing counters, queue depths,
//	                              span-derived job latencies); a standalone
//	                              daemon reports an empty workers table
//	                              plus its pool (size, running)
//	GET  /v1/tenants              every tracked tenant's usage and limits
//	PUT  /v1/tenants/<name>       tune one tenant's limits live (journaled)
//	GET  /metrics                 telemetry registry (Prometheus text format)
//	GET  /version                 build info (version, Go version)
//	GET  /healthz                 liveness; 503 once shutdown begins
//	GET  /readyz                  readiness; 503 when the queue is >=90% full
//	                              or streaming sessions are saturated; the
//	                              body is structured JSON detail (queue
//	                              depth, stream count, journal health,
//	                              per-tenant saturation)
//
// Live streaming ingestion (see internal/stream): a client opens a session
// with POST /v1/streams, ships CRC32C-framed event chunks to
// /v1/streams/<id>/events while the traced program runs, reads findings
// mid-stream from /v1/streams/<id>/findings (long-poll with ?since=&wait=),
// and finishes with /v1/streams/<id>/close. `arbalest -stream URL <program>`
// drives this end to end. -max-streams caps concurrent sessions,
// -stream-max-bytes budgets each one, and idle or stalled sessions are
// evicted after -stream-idle-timeout / -stream-read-timeout. With -spool,
// live sessions survive a daemon crash: they are rebuilt from their
// spooled bytes (and checkpoint, with -checkpoint-every) and the client
// resumes from the acknowledged event count.
//
// Traces are produced by `arbalest -save-trace out.jsonl <program>` (add
// -framed for the compact framed encoding) and can be pushed directly with
// `arbalest -submit http://host:8321 <program>`, which uploads framed
// bytes, or `curl --data-binary @out.jsonl`.
//
// With -spool DIR, every accepted job is write-ahead journaled to DIR
// before it is acknowledged; on startup the spool is recovered and any
// job that had not reached a terminal state is re-enqueued exactly once.
// -retain-jobs and -retain-age bound how much history of finished jobs
// and stream sessions stays in memory and on disk. -checkpoint-every N additionally checkpoints each
// replay's analyzer state into the spool roughly every N events, so a job
// interrupted by a crash resumes from its last checkpoint instead of
// replaying from scratch (findings are identical either way).
//
// With -debug-addr, a second HTTP listener (intended to stay private)
// serves net/http/pprof under /debug/pprof/ and expvar under /debug/vars.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, accepted
// jobs drain, then the process exits. A coordinator with a live worker does
// not wait for its workers: jobs not yet leased stay in the spool for the
// next start.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// parseDefaultLimits parses the -tenant-defaults value — a -tenants clause
// without the leading "name:" — into the limits unknown tenants start with.
func parseDefaultLimits(v string) (tenant.Limits, error) {
	if strings.TrimSpace(v) == "" {
		return tenant.Limits{}, nil
	}
	if strings.Contains(v, ";") {
		return tenant.Limits{}, fmt.Errorf("-tenant-defaults is a single key=value list (per-tenant clauses go in -tenants)")
	}
	m, err := tenant.ParseSpec("_defaults:" + v)
	if err != nil {
		return tenant.Limits{}, err
	}
	return m["_defaults"], nil
}

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", 0, "replay worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded job-queue size; full queue returns 429")
	maxEvents := flag.Int("max-events", 1<<20, "per-job trace event limit")
	maxBody := flag.Int64("max-body", 64<<20, "per-upload body size limit in bytes")
	timeout := flag.Duration("timeout", 0, "per-job replay bound, on the pool and on fleet workers' leases alike: at the deadline the job fails and is not retried (0 = unlimited)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	spool := flag.String("spool", "", "spool directory for the write-ahead job journal (empty = jobs are in-memory only and lost on crash)")
	retainJobs := flag.Int("retain-jobs", 1024, "max finished jobs and stream sessions, together, kept in memory and spool; the oldest-finished are evicted first (-1 = unlimited)")
	retainAge := flag.Duration("retain-age", 0, "evict finished jobs and stream sessions older than this (0 = no age limit)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "checkpoint analyzer state roughly every N events, enabling crash resume: into the spool (needs -spool; 0 = disabled), or under -role worker to the coordinator (0 = every 4096 events)")
	debugAddr := flag.String("debug-addr", "", "private listen address for pprof and expvar (empty = disabled)")
	maxStreams := flag.Int("max-streams", 256, "max concurrently live streaming sessions; at the cap new streams get 429 and /readyz degrades (-1 = unlimited)")
	streamMaxBytes := flag.Int64("stream-max-bytes", 256<<20, "per-stream wire-byte budget; a session exceeding it is evicted (-1 = unlimited)")
	streamIdleTimeout := flag.Duration("stream-idle-timeout", 5*time.Minute, "evict live streams with no ingest activity for this long (-1s = never)")
	streamReadTimeout := flag.Duration("stream-read-timeout", time.Minute, "evict a stream whose attached ingest request stalls between chunks for this long (-1s = never)")
	analyzerStats := flag.Bool("analyzer-stats", true, "collect per-job analyzer-level telemetry (VSM transitions, interval lookups, memo hits; the CAS-retry count is always 0)")
	traceCapacity := flag.Int("trace-capacity", 0, "bounded in-memory trace store size in traces (0 = default 512, -1 = tracing disabled)")
	traceSample := flag.Float64("trace-sample", 1.0, "head-based sampling fraction for new traces (1 = record everything)")
	role := flag.String("role", "standalone", "process role: standalone (one-process daemon), coordinator (serves the API and leases jobs to workers), worker (analysis agent for a coordinator)")
	coordinatorURL := flag.String("coordinator-url", "", "coordinator base URL (required with -role worker)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "coordinator: lease duration without a heartbeat before a job is rescheduled")
	workerID := flag.String("worker-id", "", "worker: unique worker id (default host-pid)")
	pollWait := flag.Duration("poll-wait", 5*time.Second, "worker: lease long-poll duration")
	tenantSpec := flag.String("tenants", "", "per-tenant limits: semicolon-separated \"name:key=value,...\" clauses with keys weight, rate, burst, jobs, streams, bytes (empty = no per-tenant overrides)")
	tenantDefaults := flag.String("tenant-defaults", "", "limits unknown tenants start with, as \"key=value,...\" with the -tenants keys (empty = unlimited)")
	shedTarget := flag.Duration("shed-target", 0, "queue-delay target for overload shedding: sustained dequeue sojourn above it sheds the newest job of the heaviest-backlogged tenant (0 = shedding disabled)")
	gcInterval := flag.Duration("gc-interval", 0, "also run the retention GC of finished jobs and sessions on this background interval, staggered per process (0 = GC runs inline only)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *version {
		bi := telemetry.Version()
		fmt.Printf("arbalestd %s %s\n", bi.Version, bi.GoVersion)
		return
	}

	// The correlating wrapper stamps trace_id/span_id onto every log line
	// whose context carries a trace, so logs join against /v1/traces/{id}.
	logger := slog.New(telemetry.NewCorrelatingHandler(slog.NewTextHandler(os.Stderr, nil)))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	switch *role {
	case "standalone", "coordinator":
	case "worker":
		if *coordinatorURL == "" {
			fatal("-role worker requires -coordinator-url")
		}
		runWorker(logger, *coordinatorURL, *workerID, *pollWait, *checkpointEvery)
		return
	default:
		fatal("unknown -role (want standalone, coordinator, or worker)", "role", *role)
	}

	tenantLimits, err := tenant.ParseSpec(*tenantSpec)
	if err != nil {
		fatal("bad -tenants spec", "err", err)
	}
	defaultLimits, err := parseDefaultLimits(*tenantDefaults)
	if err != nil {
		fatal("bad -tenant-defaults", "err", err)
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueSize:       *queue,
		MaxEvents:       *maxEvents,
		MaxBodyBytes:    *maxBody,
		ReplayTimeout:   *timeout,
		MaxFinishedJobs: *retainJobs,
		MaxJobAge:       *retainAge,
		CheckpointEvery: *checkpointEvery,
		Logger:          logger,
		AnalyzerStats:   *analyzerStats,
		TraceCapacity:   *traceCapacity,
		TraceSampleRate: *traceSample,

		MaxStreams:        *maxStreams,
		StreamMaxBytes:    *streamMaxBytes,
		StreamIdleTimeout: *streamIdleTimeout,
		StreamReadTimeout: *streamReadTimeout,

		TenantDefaults: defaultLimits,
		TenantLimits:   tenantLimits,
		ShedTarget:     *shedTarget,
		GCInterval:     *gcInterval,
	}
	if *checkpointEvery > 0 && *spool == "" {
		fatal("-checkpoint-every requires -spool (checkpoints live in the spool directory)")
	}
	if *spool != "" {
		jnl, err := journal.Open(*spool)
		if err != nil {
			fatal("open spool failed", "spool", *spool, "err", err)
		}
		cfg.Journal = jnl
	}
	svc := service.New(cfg)
	if cfg.Journal != nil {
		requeued, err := svc.Recover()
		if err != nil {
			fatal("spool recovery failed", "spool", *spool, "err", err)
		}
		logger.Info("spool recovered", "spool", *spool, "requeued", requeued)
	}

	var coord *dist.Coordinator
	handler := http.Handler(svc.Handler())
	if *role == "coordinator" {
		ccfg := dist.CoordinatorConfig{
			Backend:  svc,
			LeaseTTL: *leaseTTL,
			Registry: svc.Metrics().Registry(),
			Logger:   logger,
		}
		if cfg.Journal != nil {
			ccfg.Fleet = cfg.Journal.Fleet()
		}
		var err error
		coord, err = dist.NewCoordinator(ccfg)
		if err != nil {
			fatal("coordinator init failed", "err", err)
		}
		// Attached before Start, so recovered jobs wait out the reconnect
		// grace for a lease instead of running in the pool at once.
		svc.AttachCoordinator(coord)
		coord.Start()
		mux := http.NewServeMux()
		mux.Handle("/v1/fleet/", coord.Handler())
		// /v1/fleet/status is the service's federated view, not a fleet
		// protocol endpoint; the exact pattern outranks the prefix mount so
		// it must be routed back to the service explicitly.
		mux.Handle("GET /v1/fleet/status", handler)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("fleet coordinator up", "lease_ttl", *leaseTTL)
	}
	svc.Start()

	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, debugHandler()); err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug endpoints up", "addr", *debugAddr)
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("arbalestd: listening on %s (%d workers, queue %d)\n",
		*addr, svc.Config().Workers, svc.Config().QueueSize)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "arbalestd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	fmt.Println("arbalestd: shutting down, draining jobs...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "arbalestd: http shutdown:", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "arbalestd: job drain:", err)
		os.Exit(1)
	}
	if coord != nil {
		if err := coord.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "arbalestd: coordinator drain:", err)
			os.Exit(1)
		}
	}
	fmt.Println("arbalestd: done")
}

// runWorker runs the fleet analysis agent until SIGINT/SIGTERM (or until a
// fault-injected crash kills it, in chaos tests).
func runWorker(logger *slog.Logger, coordinatorURL, id string, pollWait time.Duration, checkpointEvery uint64) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := dist.NewWorker(dist.WorkerConfig{
		ID:              id,
		CoordinatorURL:  coordinatorURL,
		PollWait:        pollWait,
		CheckpointEvery: checkpointEvery,
		Logger:          logger,
	})
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("arbalestd: worker %s serving coordinator %s\n", id, coordinatorURL)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "arbalestd: worker:", err)
		os.Exit(1)
	}
	fmt.Println("arbalestd: worker done")
}

// debugHandler builds the private diagnostics mux: pprof profiles and the
// expvar JSON dump. Registered on a dedicated mux (not the API mux or
// http.DefaultServeMux) so profiling never leaks onto the public listener.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
