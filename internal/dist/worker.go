package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
)

// WorkerConfig parameterizes a worker agent.
type WorkerConfig struct {
	// ID names this worker to the coordinator (required, unique per
	// process).
	ID string
	// CoordinatorURL is the coordinator's base URL (required).
	CoordinatorURL string
	// PollWait is the lease long-poll duration (default 5s).
	PollWait time.Duration
	// CheckpointEvery asks the replay to stream a checkpoint to the
	// coordinator roughly every this many events, at epoch boundaries
	// (0 means the default, 4096). A worker always checkpoints an analyzer
	// that supports it.
	CheckpointEvery uint64
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Retry shapes worker->coordinator RPC retries. The zero value uses
	// the package defaults (4 attempts, exponential backoff, full jitter,
	// 30s budget).
	Retry retry.Policy
	// BreakerThreshold trips the worker's coordinator circuit breaker after
	// this many consecutive failed RPCs (each already retried under Retry).
	// While open, every coordinator call fails fast with
	// retry.ErrBreakerOpen instead of burning its full retry budget —
	// so a fleet of workers doesn't hammer a limping coordinator with
	// Threshold × MaxAttempts × N requests the moment it returns. Default
	// 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fails fast before
	// letting one probe through (default PollWait).
	BreakerCooldown time.Duration
	// Logger receives operational logging. Nil discards.
	Logger *slog.Logger
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.PollWait <= 0 {
		c.PollWait = 5 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4096
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = c.PollWait
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Worker is the fleet's analysis agent: it registers with the coordinator,
// long-polls for leases, replays each leased job's trace while streaming
// epoch-barrier checkpoints and heartbeats back, and posts the terminal
// result. It holds no durable state of its own — a worker that dies loses
// nothing the coordinator cannot reschedule.
type Worker struct {
	cfg WorkerConfig
	ttl time.Duration // lease TTL learned at registration
	// breaker is the circuit breaker guarding every coordinator RPC; nil
	// when disabled (BreakerThreshold < 0).
	breaker *retry.Breaker
}

// NewWorker builds a worker agent.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	w := &Worker{cfg: cfg}
	if cfg.BreakerThreshold > 0 {
		w.breaker = retry.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	return w
}

// guard runs one (already retry-wrapped) coordinator RPC under the circuit
// breaker: fail fast while open, otherwise run and record the outcome. An
// application verdict — any HTTP status below 500 except 429 — proves the
// coordinator is alive and counts as a success for the breaker even though
// the call itself failed (a fenced 409 must not trip the circuit).
func (w *Worker) guard(fn func() error) error {
	if w.breaker == nil {
		return fn()
	}
	if err := w.breaker.Allow(); err != nil {
		return err
	}
	err := fn()
	outcome := err
	var se *httpStatusError
	if errors.As(err, &se) && se.status < 500 && se.status != http.StatusTooManyRequests {
		outcome = nil
	}
	w.breaker.Record(outcome)
	return err
}

// workerTrace is the worker's local span tree for one lease: a "worker"
// root parented under the lease span whose context the grant carried, with
// one child per phase (fetch, restore, replay, result). The worker holds no
// durable trace state — it ships Clone snapshots back piggybacked on every
// heartbeat and on the result post, and the coordinator merges the freshest
// snapshot of each span into the job's trace. An extra beat fires right
// after every checkpoint post, so when a worker dies mid-replay the spans
// up to its last durable checkpoint are already on the coordinator.
//
// The mutex covers every span in the tree: runJob mutates phases while the
// heartbeat goroutine snapshots, so both go through these methods.
type workerTrace struct {
	mu   sync.Mutex
	root *telemetry.Span
	// ship admits one heartbeat at a time (see Worker.beat).
	ship sync.Mutex
}

// newWorkerTrace builds the tree from a grant's traceparent, nil (tracing
// off, every method a no-op) when the grant carries none or the trace is
// unsampled.
func newWorkerTrace(traceparent, workerID string) *workerTrace {
	tc, ok := telemetry.ParseTraceparent(traceparent)
	if !ok || !tc.Sampled {
		return nil
	}
	root := telemetry.NewSpan("worker", time.Now())
	root.Identify(telemetry.TraceContext{TraceID: tc.TraceID, SpanID: telemetry.NewSpanID(), Sampled: true}, tc.SpanID)
	root.SetAttr("worker", workerID)
	return &workerTrace{root: root}
}

// context returns the root's trace context for log correlation.
func (wt *workerTrace) context() telemetry.TraceContext {
	if wt == nil {
		return telemetry.TraceContext{}
	}
	return wt.root.Context()
}

// begin opens a phase span under the root.
func (wt *workerTrace) begin(name string) *telemetry.Span {
	if wt == nil {
		return nil
	}
	wt.mu.Lock()
	defer wt.mu.Unlock()
	return wt.root.StartChild(name, time.Time{})
}

// end closes a phase span, recording err as its failure when non-nil.
func (wt *workerTrace) end(s *telemetry.Span, err error) {
	if wt == nil || s == nil {
		return
	}
	wt.mu.Lock()
	if err != nil {
		s.SetError(err.Error())
	}
	s.EndAt(time.Time{})
	wt.mu.Unlock()
}

// setCount annotates a phase span with a named count.
func (wt *workerTrace) setCount(s *telemetry.Span, key string, v int64) {
	if wt == nil || s == nil {
		return
	}
	wt.mu.Lock()
	s.SetCount(key, v)
	wt.mu.Unlock()
}

// finish closes the root (errMsg marks it failed) before the result ships.
func (wt *workerTrace) finish(errMsg string) {
	if wt == nil {
		return
	}
	wt.mu.Lock()
	if errMsg != "" {
		wt.root.SetError(errMsg)
	}
	wt.root.EndAt(time.Time{})
	wt.mu.Unlock()
}

// snapshot returns an immutable copy of the tree for shipping, nil when
// tracing is off.
func (wt *workerTrace) snapshot() []*telemetry.Span {
	if wt == nil {
		return nil
	}
	wt.mu.Lock()
	defer wt.mu.Unlock()
	return []*telemetry.Span{wt.root.Clone()}
}

// Per-job abort causes. None of them are reported to the coordinator: a
// fenced or partitioned worker has lost the right to speak for the job,
// and a crashed one is simulating sudden death.
var (
	// errWorkerCrash simulates the worker process dying mid-job (the
	// "dist.worker.crash" fault point): Run returns and the job is left
	// for the coordinator's lease expiry to reschedule.
	errWorkerCrash = errors.New("dist: worker crashed (fault injection)")
	// errFencedLocal is the worker-side reaction to a 409: abandon the job.
	errFencedLocal = errors.New("dist: lease lost (fenced by coordinator)")
	// errPartitioned is the worker-side reaction to heartbeats failing for
	// longer than one lease TTL: the coordinator has certainly expired the
	// lease, so stop burning CPU on a job someone else now owns.
	errPartitioned = errors.New("dist: partitioned from coordinator longer than the lease TTL")
)

// Run registers and processes leases until ctx is canceled or a simulated
// crash (fault injection) kills the agent. The returned error is nil on
// clean shutdown and on simulated death — dying is part of a worker's
// contract, not a failure.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return fmt.Errorf("dist: worker %s: register: %w", w.cfg.ID, err)
	}
	w.cfg.Logger.Info("worker registered", "worker", w.cfg.ID, "lease_ttl", w.ttl)
	for ctx.Err() == nil {
		grant, err := w.lease(ctx)
		if err != nil {
			// Coordinator unreachable past the retry budget: back off one
			// poll interval and try again; the coordinator may be
			// restarting.
			w.cfg.Logger.Warn("lease poll failed", "worker", w.cfg.ID, "err", err)
			select {
			case <-time.After(w.cfg.PollWait):
			case <-ctx.Done():
			}
			continue
		}
		if grant == nil {
			continue // long poll expired with no work
		}
		if err := w.runJob(ctx, grant); errors.Is(err, errWorkerCrash) {
			w.cfg.Logger.Error("worker crashing (fault injection)", "worker", w.cfg.ID, "job_id", grant.Job.ID)
			return nil
		}
	}
	return nil
}

// runJob analyzes one leased job. Errors are terminal for the lease, not
// the worker: a replay failure is posted as the job's failed result, while
// fencing, partition, and simulated crashes abandon the job silently.
func (w *Worker) runJob(ctx context.Context, grant *LeaseGrant) error {
	jobID, token := grant.Job.ID, grant.Token
	wt := newWorkerTrace(grant.Traceparent, w.cfg.ID)
	log := telemetry.LoggerWithTrace(
		w.cfg.Logger.With("worker", w.cfg.ID, "job_id", jobID, "token", token),
		wt.context())

	// postFinal closes the worker span tree and posts the terminal result
	// with the final span snapshot piggybacked.
	postFinal := func(errMsg string, result json.RawMessage) error {
		wt.finish(errMsg)
		return w.postResult(ctx, jobID, token, errMsg, result, wt.snapshot())
	}

	// The replay context dies with the lease: a fenced heartbeat or a
	// partition longer than the TTL cancels the job mid-phase. Heartbeats
	// start immediately — before the trace fetch and state restore — so a
	// slow setup (large trace, loaded host) cannot silently outlive the
	// lease before the first beat ever lands.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hbDone := make(chan struct{})
	go w.heartbeatLoop(rctx, cancel, hbDone, jobID, token, wt)
	defer func() { cancel(nil); <-hbDone }()

	fetchSpan := wt.begin("fetch")
	tr, err := w.fetchTrace(rctx, jobID)
	wt.end(fetchSpan, err)
	if err != nil {
		log.Error("trace fetch failed; abandoning lease", "err", err)
		return nil // the lease will expire and the job reschedule
	}
	wt.setCount(fetchSpan, "events", int64(tr.Len()))

	restoreSpan := wt.begin("restore")
	ck, err := w.fetchCheckpoint(rctx, jobID, token)
	if err != nil {
		log.Warn("checkpoint fetch failed; replaying from scratch", "err", err)
	}

	// The run applies the daemon's replay timeout around the replay only,
	// as the pool does: fetch and restore are the lease TTL's business.
	var replaySpan *telemetry.Span
	run, err := tools.NewRun(grant.Job.Tool, tools.RunOptions{
		Options: tools.Options{Stats: grant.Job.Stats},
		ID:      jobID, From: ck, Timeout: grant.Job.ReplayTimeout,
		CheckpointEvery: w.cfg.CheckpointEvery,
		Checkpoint: func(take func() (*trace.Checkpoint, error)) error {
			if cause := context.Cause(rctx); cause != nil {
				return cause
			}
			if err := faultinject.Fire("dist.worker.slow"); err != nil {
				return err
			}
			wck, serr := take()
			if serr != nil {
				log.Error("checkpoint serialize failed", "err", serr)
				return nil // checkpoints are an optimization
			}
			if perr := w.postCheckpoint(rctx, wck, token); perr != nil {
				if isFenced(perr) {
					return errFencedLocal
				}
				log.Warn("checkpoint post failed; continuing", "err", perr)
			}
			// Ship the span tree right behind the durable checkpoint: if the
			// worker dies after this point (the very next statement in the
			// fault-injected case), the trace already shows how far it got.
			wt.setCount(replaySpan, "checkpoint_event", int64(wck.NextEvent))
			if wt != nil {
				_ = w.beat(rctx, jobID, token, wt)
			}
			if err := faultinject.Fire("dist.worker.crash"); err != nil {
				return errWorkerCrash
			}
			return nil
		},
	})
	if err != nil {
		wt.end(restoreSpan, err)
		return postFinal(err.Error(), nil)
	}
	if run.RestoreErr != nil {
		log.Error("checkpoint restore failed; replaying from scratch", "err", run.RestoreErr)
	} else if run.Start > 0 {
		log.Info("resuming from handed-off checkpoint", "resume_event", run.Start, "events", tr.Len())
	}
	wt.setCount(restoreSpan, "resume_event", int64(run.Start))
	wt.end(restoreSpan, nil)

	replaySpan = wt.begin("replay")
	wt.setCount(replaySpan, "start_event", int64(run.Start))
	var summary *tools.Summary
	_, rerr := run.Replay(rctx, tr)
	if rerr == nil {
		summary, rerr = run.Finish()
	}
	cancel(nil)
	<-hbDone
	if errors.Is(rerr, errWorkerCrash) {
		return errWorkerCrash
	}
	wt.end(replaySpan, rerr)
	if cause := context.Cause(rctx); cause != nil &&
		(errors.Is(cause, errFencedLocal) || errors.Is(cause, errPartitioned)) {
		log.Warn("abandoning job", "cause", cause)
		return nil
	}
	if errors.Is(rerr, errFencedLocal) {
		log.Warn("abandoning job", "cause", rerr)
		return nil
	}
	if rerr != nil {
		if perr := postFinal(rerr.Error(), nil); perr != nil && !isFenced(perr) {
			log.Error("failed-result post failed", "err", perr)
		}
		return nil
	}
	resultJSON, merr := json.Marshal(summary)
	if merr != nil {
		resultJSON = nil
	}
	wt.setCount(replaySpan, "issues", int64(summary.Issues))
	if perr := postFinal("", resultJSON); perr != nil && !isFenced(perr) {
		log.Error("result post failed; lease will expire and the job reschedule", "err", perr)
		return nil
	}
	log.Info("job completed", "issues", summary.Issues)
	return nil
}

// heartbeatLoop extends the lease every TTL/3, beating once immediately on
// entry so the setup phase (trace fetch, checkpoint restore) is covered
// from the moment the lease is held. A 409 means the lease is gone — cancel
// the replay with errFencedLocal. Heartbeats failing (without a verdict)
// for longer than one TTL mean the coordinator has expired the lease on its
// side: cancel with errPartitioned so a partitioned worker stops analyzing
// a job it no longer owns instead of looping forever. The "dist.heartbeat"
// fault point simulates the partition by failing the send.
func (w *Worker) heartbeatLoop(ctx context.Context, cancel context.CancelCauseFunc, done chan<- struct{}, jobID string, token uint64, wt *workerTrace) {
	defer close(done)
	interval := w.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var failingSince time.Time
	for {
		err := faultinject.Fire("dist.heartbeat")
		if err == nil {
			err = w.beat(ctx, jobID, token, wt)
		}
		switch {
		case err == nil:
			failingSince = time.Time{}
		case isFenced(err):
			cancel(errFencedLocal)
			return
		default:
			if failingSince.IsZero() {
				failingSince = time.Now()
			}
			if time.Since(failingSince) > w.ttl {
				cancel(errPartitioned)
				return
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// --- coordinator RPCs (all via internal/retry) ---

// httpStatusError is a non-2xx coordinator answer.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("dist: coordinator answered %d: %s", e.status, e.body)
}

func isFenced(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && se.status == http.StatusConflict
}

// doJSON performs one request against the coordinator and decodes a 2xx
// JSON answer into out; a nil out or a 204 discards the body. A body that
// does not decode is retried.
func (w *Worker) doJSON(ctx context.Context, method, path string, query url.Values, body []byte, contentType string, out any) error {
	return w.call(ctx, w.cfg.Retry, method, path, query, body, contentType, func(resp *http.Response) error {
		if out == nil || resp.StatusCode == http.StatusNoContent {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// call performs one request against the coordinator, retried under policy,
// with the whole retry budget observed by the breaker as one outcome. A
// non-2xx answer becomes an httpStatusError: a retryable status
// (429/503/5xx) honors Retry-After, the rest are permanent. A 2xx answer
// goes to decode, whose error is retried unless it is retry.Permanent.
func (w *Worker) call(ctx context.Context, policy retry.Policy, method, path string, query url.Values, body []byte, contentType string, decode func(*http.Response) error) error {
	u := w.cfg.CoordinatorURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	return w.guard(func() error {
		return policy.Do(ctx, func(int) error {
			req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
			if err != nil {
				return retry.Permanent(err)
			}
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			resp, err := w.cfg.Client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			return retry.Classify(resp, func(resp *http.Response) error {
				if resp.StatusCode >= 300 {
					msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
					return &httpStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
				}
				return decode(resp)
			})
		})
	})
}

func (w *Worker) register(ctx context.Context) error {
	body, _ := json.Marshal(registerRequest{Worker: w.cfg.ID})
	var resp registerResponse
	if err := w.doJSON(ctx, http.MethodPost, "/v1/fleet/workers", nil, body, "application/json", &resp); err != nil {
		return err
	}
	w.ttl = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
	if w.ttl <= 0 {
		w.ttl = 15 * time.Second
	}
	return nil
}

func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	q := url.Values{
		"worker":     {w.cfg.ID},
		"waitMillis": {strconv.FormatInt(w.cfg.PollWait.Milliseconds(), 10)},
	}
	var grant LeaseGrant
	err := w.doJSON(ctx, http.MethodPost, "/v1/fleet/lease", q, nil, "", &grant)
	if err != nil {
		return nil, err
	}
	if grant.Job.ID == "" {
		return nil, nil // 204: nothing pending
	}
	return &grant, nil
}

// fetchTrace downloads the leased job's trace. The download is retried
// under the worker's policy, so a dropped connection costs one more
// request; the bytes are decoded once, after it, since a trace the worker
// cannot read (a framed version it does not know, or corruption) reads no
// better from a second download.
func (w *Worker) fetchTrace(ctx context.Context, jobID string) (*trace.Trace, error) {
	var data []byte
	err := w.call(ctx, w.cfg.Retry, http.MethodGet, "/v1/fleet/jobs/"+url.PathEscape(jobID)+"/trace", nil, nil, "", func(resp *http.Response) (err error) {
		data, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return trace.Decode(data, trace.Limits{})
}

// fetchCheckpoint returns the job's handed-off checkpoint, nil when the
// coordinator has none (204).
func (w *Worker) fetchCheckpoint(ctx context.Context, jobID string, token uint64) (*trace.Checkpoint, error) {
	q := url.Values{
		"worker": {w.cfg.ID},
		"token":  {strconv.FormatUint(token, 10)},
	}
	var ck *trace.Checkpoint
	err := w.call(ctx, w.cfg.Retry, http.MethodGet, "/v1/fleet/jobs/"+url.PathEscape(jobID)+"/checkpoint", q, nil, "", func(resp *http.Response) error {
		if resp.StatusCode == http.StatusNoContent {
			return nil
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxCheckpointBody))
		if err != nil {
			return err
		}
		if ck, err = trace.DecodeCheckpoint(data); err != nil {
			return retry.Permanent(err) // corrupt on the wire won't improve
		}
		return nil
	})
	return ck, err
}

// beat posts a heartbeat carrying a fresh snapshot of wt (nil when tracing
// is off). The heartbeat loop and the post-checkpoint beat run on different
// goroutines, and the coordinator keeps whichever snapshot arrives last, so
// each snapshot is taken and posted under wt.ship: an older one still in
// flight can never land after, and overwrite, a newer one.
func (w *Worker) beat(ctx context.Context, jobID string, token uint64, wt *workerTrace) error {
	if wt != nil {
		wt.ship.Lock()
		defer wt.ship.Unlock()
	}
	return w.postHeartbeat(ctx, jobID, token, wt.snapshot())
}

func (w *Worker) postHeartbeat(ctx context.Context, jobID string, token uint64, spans []*telemetry.Span) error {
	body, _ := json.Marshal(writeRequest{Worker: w.cfg.ID, Token: token, Spans: spans})
	// Heartbeats are time-critical and repeat on their own schedule: one
	// attempt each, no backoff (the heartbeat loop itself is the retry).
	p := w.cfg.Retry
	p.MaxAttempts = 1
	return w.call(ctx, p, http.MethodPost, "/v1/fleet/jobs/"+url.PathEscape(jobID)+"/heartbeat", nil, body, "application/json",
		func(*http.Response) error { return nil })
}

func (w *Worker) postCheckpoint(ctx context.Context, ck *trace.Checkpoint, token uint64) error {
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	q := url.Values{
		"worker": {w.cfg.ID},
		"token":  {strconv.FormatUint(token, 10)},
	}
	return w.doJSON(ctx, http.MethodPost, "/v1/fleet/jobs/"+url.PathEscape(ck.JobID)+"/checkpoint", q, data, "application/octet-stream", nil)
}

func (w *Worker) postResult(ctx context.Context, jobID string, token uint64, errMsg string, result json.RawMessage, spans []*telemetry.Span) error {
	body, _ := json.Marshal(writeRequest{Worker: w.cfg.ID, Token: token, Error: errMsg, Result: result, Spans: spans})
	return w.doJSON(ctx, http.MethodPost, "/v1/fleet/jobs/"+url.PathEscape(jobID)+"/result", nil, body, "application/json", nil)
}
