package dist

import (
	"context"
	"io"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Backend is the job engine (required).
	Backend Backend
	// LeaseTTL is how long a lease survives without a heartbeat (default
	// 15s). Workers heartbeat at TTL/3, so one TTL tolerates two lost
	// heartbeats before the job is rescheduled.
	LeaseTTL time.Duration
	// WorkerTTL is how long a registered worker stays "live" without any
	// contact (default 3×LeaseTTL). With no live worker, Handoff declines
	// every job and the service's pool runs it.
	WorkerTTL time.Duration
	// Registry receives the fleet metric families; pass the service's so
	// one scrape covers both (nil = private registry).
	Registry *telemetry.Registry
	// Fleet, when non-nil, write-ahead persists fencing tokens and worker
	// registrations so both survive a coordinator restart. Nil keeps them
	// in memory only (fencing then holds within one coordinator life).
	Fleet *journal.FleetLog
	// Logger receives operational logging. Nil discards.
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 3 * c.LeaseTTL
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// lease is one job's current ownership record.
type lease struct {
	spec     JobSpec
	worker   string
	token    uint64
	deadline time.Time
}

// LeaseGrant is the coordinator's answer to a successful lease poll.
type LeaseGrant struct {
	Job   JobSpec `json:"job"`
	Token uint64  `json:"token"`
	// TTLMillis is the lease TTL; the worker must heartbeat well inside it.
	TTLMillis int64 `json:"ttlMillis"`
	// Traceparent carries the job's distributed trace context (the lease
	// span opened for this grant); the worker parents its local spans under
	// it. Empty when the job is untraced.
	Traceparent string `json:"traceparent,omitempty"`
}

// handoff is one job a pool worker of the service holds for the next lease
// poll (Handoff).
type handoff struct {
	spec JobSpec
	// done is closed once a lease poll has dealt with the job: leased,
	// found already terminal, or requeued after a failed token write.
	done chan struct{}
}

// Coordinator owns the lease table for a worker fleet. It keeps no job
// queue: jobs wait in the service's fair queue until a pool worker hands
// one over (Handoff). Create with NewCoordinator, attach it to the service,
// launch with Start, stop with Shutdown.
type Coordinator struct {
	cfg CoordinatorConfig
	m   *fleetMetrics

	mu sync.Mutex
	// held lists the jobs pool workers hold for the next lease poll, in the
	// order they left the service's weighted-fair queue; grants take the
	// oldest first and so keep that order.
	held    []*handoff
	leases  map[string]*lease    // job id -> active lease
	tokens  map[string]uint64    // job id -> newest issued fencing token
	workers map[string]time.Time // worker id -> last contact
	// notify is closed and replaced when a job is held or the fleet
	// changes, waking lease polls and the Handoff calls waiting for them.
	notify chan struct{}
	closed bool
	// graceUntil keeps jobs held for re-lease (instead of run inline) until
	// previously-registered workers have had time to reconnect after a
	// coordinator restart.
	graceUntil time.Time

	stop   chan struct{}
	loopWG sync.WaitGroup
}

// NewCoordinator builds a Coordinator. With cfg.Fleet set, the fencing
// tokens and worker registrations of previous coordinator lives are
// recovered first, so re-issued leases continue the monotone token sequence
// and recovered jobs wait out a reconnect grace window before degrading to
// inline execution.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		m:       newFleetMetrics(cfg.Registry),
		leases:  make(map[string]*lease),
		tokens:  make(map[string]uint64),
		workers: make(map[string]time.Time),
		notify:  make(chan struct{}),
		stop:    make(chan struct{}),
	}
	if cfg.Fleet != nil {
		st, err := cfg.Fleet.RecoverFleet(nil)
		if err != nil {
			return nil, err
		}
		c.tokens = st.Tokens
		if len(st.Workers) > 0 {
			c.graceUntil = time.Now().Add(cfg.WorkerTTL)
			cfg.Logger.Info("fleet log recovered; holding jobs for worker reconnect",
				"tokens", len(st.Tokens), "workers", len(st.Workers), "grace", cfg.WorkerTTL)
		}
	}
	return c, nil
}

// Start launches the janitor loop.
func (c *Coordinator) Start() {
	c.loopWG.Add(1)
	go c.janitorLoop()
}

// Shutdown answers pending lease polls, stops the janitor and waits for it.
// Jobs leased to remote workers are NOT waited for: they are journaled on
// the coordinator and either complete against the next coordinator life or
// are recovered by it. After Shutdown, Handoff declines every job.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
		c.wakeLocked()
	}
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.loopWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wakeLocked signals every goroutine parked on the notify channel. Callers
// hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// leasingLocked reports whether jobs should wait for a lease: a worker is
// live, or the reconnect grace after a restart is still running. Callers
// hold c.mu.
func (c *Coordinator) leasingLocked(now time.Time) bool {
	return !c.closed && (c.liveWorkersLocked(now) > 0 || now.Before(c.graceUntil))
}

// liveWorkersLocked counts workers seen within WorkerTTL. Callers hold c.mu.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= c.cfg.WorkerTTL {
			n++
		}
	}
	return n
}

// Handoff is called by a pool worker of the service for each job it
// dequeues. While the fleet is leasing it holds the job for the next lease
// poll, so jobs leave the service's queue no faster than workers ask for
// them, and returns true once a poll has dealt with it: leased, found
// already terminal, or requeued because its fencing token could not be
// written. It returns false, and counts the job in
// arbalestd_fleet_jobs_inline_total, when the caller should run the job
// itself: no worker is live and no restart grace is running, from the start
// or after the last worker expired while the job waited. Canceling ctx (the
// service shutting down) withdraws a held job and returns true, leaving it
// journaled for the next life, unless the fleet is gone too; then the
// caller runs it.
func (c *Coordinator) Handoff(ctx context.Context, spec JobSpec) bool {
	c.mu.Lock()
	leasing := c.leasingLocked(time.Now())
	if leasing && ctx.Err() == nil {
		h := &handoff{spec: spec, done: make(chan struct{})}
		c.held = append(c.held, h)
		c.wakeLocked()
		for leasing && ctx.Err() == nil {
			ch := c.notify
			c.mu.Unlock()
			select {
			case <-h.done:
				return true
			case <-ch:
			case <-ctx.Done():
			}
			c.mu.Lock()
			leasing = c.leasingLocked(time.Now())
		}
		i := slices.Index(c.held, h)
		if i < 0 {
			// A lease poll took the job meanwhile; it settles it.
			c.mu.Unlock()
			<-h.done
			return true
		}
		c.held = slices.Delete(c.held, i, i+1)
	}
	c.mu.Unlock()
	if leasing {
		return true // shutting down with workers live: the job waits for the next life
	}
	c.m.jobsInline.Inc()
	return false
}

// Register records a worker, durably when a fleet log is configured, and
// returns the lease TTL the worker should plan its heartbeats around.
func (c *Coordinator) Register(workerID string) (time.Duration, error) {
	if err := faultinject.Fire("dist.lease"); err != nil {
		return 0, err
	}
	c.mu.Lock()
	_, known := c.workers[workerID]
	c.workers[workerID] = time.Now()
	c.m.workers.Set(int64(len(c.workers)))
	c.mu.Unlock()
	if !known && c.cfg.Fleet != nil {
		if err := c.cfg.Fleet.RecordWorker(workerID); err != nil {
			c.cfg.Logger.Error("fleet log worker record failed", "worker", workerID, "err", err)
		}
	}
	c.cfg.Logger.Info("worker registered", "worker", workerID)
	return c.cfg.LeaseTTL, nil
}

// Lease long-polls for the next held job on behalf of workerID, waiting
// up to wait before answering (nil, nil) — "nothing yet, poll again". A
// grant's fencing token is write-ahead persisted before the grant returns.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (*LeaseGrant, error) {
	if err := faultinject.Fire("dist.lease"); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, nil
		}
		c.workers[workerID] = time.Now()
		if grant, err := c.grantLocked(workerID); grant != nil || err != nil {
			c.mu.Unlock()
			return grant, err
		}
		ch := c.notify
		c.mu.Unlock()

		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, nil
		case <-c.stop:
			timer.Stop()
			return nil, nil
		}
	}
}

// grantLocked leases the longest-held job to workerID. It returns (nil,
// nil) when no job is held. Callers hold c.mu; the lock is released around
// the fleet-log fsync and re-acquired (safe because the taken job is owned
// by this call: it is in neither held nor leases).
func (c *Coordinator) grantLocked(workerID string) (*LeaseGrant, error) {
	for len(c.held) > 0 {
		h := c.held[0]
		c.held = slices.Delete(c.held, 0, 1)
		spec := h.spec
		token := c.tokens[spec.ID] + 1
		if c.cfg.Fleet != nil {
			c.mu.Unlock()
			err := c.cfg.Fleet.RecordToken(spec.ID, token)
			c.mu.Lock()
			if err != nil {
				// Without the durable token the grant is unsafe; put the job
				// back at the head of its tenant's line and surface the spool
				// failure to the worker (503).
				c.cfg.Backend.Requeue(spec.ID)
				close(h.done)
				return nil, err
			}
		}
		running := c.cfg.Backend.MarkJobRunning(spec.ID, workerID)
		close(h.done)
		if !running {
			// The job reached a terminal state or was evicted while held;
			// nothing to lease.
			continue
		}
		c.tokens[spec.ID] = token
		c.leases[spec.ID] = &lease{
			spec:     spec,
			worker:   workerID,
			token:    token,
			deadline: time.Now().Add(c.cfg.LeaseTTL),
		}
		c.m.leasesGranted.Inc()
		grant := &LeaseGrant{Job: spec, Token: token, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
		grant.Traceparent = c.cfg.Backend.StartLeaseSpan(spec.ID, workerID, token)
		if tc, ok := telemetry.ParseTraceparent(grant.Traceparent); ok {
			c.cfg.Logger.Info("lease granted",
				"job_id", spec.ID, "worker", workerID, "token", token,
				"trace_id", tc.TraceID, "span_id", tc.SpanID)
		} else {
			c.cfg.Logger.Info("lease granted",
				"job_id", spec.ID, "worker", workerID, "token", token)
		}
		return grant, nil
	}
	return nil, nil
}

// checkLeaseLocked verifies that (job, worker, token) names the current
// lease holder, counting a fenced write under op when it does not. Callers
// hold c.mu.
func (c *Coordinator) checkLeaseLocked(jobID, workerID string, token uint64, op string) error {
	l, ok := c.leases[jobID]
	if !ok || l.worker != workerID || l.token != token {
		c.m.fencedWrites.With(op).Inc()
		c.cfg.Logger.Warn("fenced write rejected",
			"job_id", jobID, "worker", workerID, "token", token, "op", op)
		// The backend's span methods take its own lock; the lock order is
		// c.mu before the backend's (see grantLocked's MarkJobRunning), so
		// calling them under c.mu is safe.
		c.cfg.Backend.RecordFenced(jobID, workerID, op, token)
		return ErrFenced
	}
	return nil
}

// Heartbeat extends the named lease, merging any worker span snapshots
// piggybacked on the beat into the job's trace. A stale token is fenced:
// the sender lost the job and must abandon it, and its spans are rejected
// wholesale — fenced observability data never reaches the trace either
// (DESIGN.md §5.9).
func (c *Coordinator) Heartbeat(jobID, workerID string, token uint64, spans []*telemetry.Span) error {
	c.mu.Lock()
	if err := c.checkLeaseLocked(jobID, workerID, token, "heartbeat"); err != nil {
		c.mu.Unlock()
		return err
	}
	c.leases[jobID].deadline = time.Now().Add(c.cfg.LeaseTTL)
	c.workers[workerID] = time.Now()
	c.m.heartbeats.Inc()
	c.mu.Unlock()
	if len(spans) > 0 {
		c.cfg.Backend.MergeLeaseSpans(jobID, token, spans)
	}
	return nil
}

// ReceiveCheckpoint ingests one encoded epoch-barrier checkpoint from the
// named lease holder. The checkpoint doubles as a heartbeat. Fenced or
// corrupt checkpoints are rejected without touching the job.
func (c *Coordinator) ReceiveCheckpoint(workerID string, token uint64, data []byte) error {
	ck, err := trace.DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if err := c.checkLeaseLocked(ck.JobID, workerID, token, "checkpoint"); err != nil {
		c.mu.Unlock()
		return err
	}
	c.leases[ck.JobID].deadline = time.Now().Add(c.cfg.LeaseTTL)
	c.workers[workerID] = time.Now()
	c.mu.Unlock()
	if err := c.cfg.Backend.StoreRemoteCheckpoint(ck); err != nil {
		return err
	}
	c.m.checkpointsReceived.Inc()
	return nil
}

// ReceiveResult records the named lease holder's terminal result exactly
// once and releases the lease. A stale token is fenced: the job was
// rescheduled and its result belongs to the new holder.
func (c *Coordinator) ReceiveResult(jobID, workerID string, token uint64, errMsg string, result []byte, spans []*telemetry.Span) error {
	c.mu.Lock()
	if err := c.checkLeaseLocked(jobID, workerID, token, "result"); err != nil {
		c.mu.Unlock()
		return err
	}
	// Claim the completion before releasing the lock: a janitor tick
	// between unlock and CompleteRemote must not reschedule a job whose
	// result is already in hand.
	delete(c.leases, jobID)
	c.workers[workerID] = time.Now()
	c.mu.Unlock()
	if len(spans) > 0 {
		c.cfg.Backend.MergeLeaseSpans(jobID, token, spans)
	}
	c.cfg.Backend.CloseLeaseSpan(jobID, token, errMsg)
	if err := c.cfg.Backend.CompleteRemote(jobID, errMsg, result); err != nil {
		return err
	}
	status := "done"
	if errMsg != "" {
		status = "failed"
	}
	c.m.results.With(status).Inc()
	c.cfg.Logger.Info("remote result recorded", "job_id", jobID, "worker", workerID, "status", status)
	return nil
}

// FreshCheckpointEncoded returns the job's newest ingested checkpoint in
// wire form, or nil when the job must replay from scratch.
func (c *Coordinator) FreshCheckpointEncoded(jobID string) ([]byte, error) {
	ck := c.cfg.Backend.FreshCheckpoint(jobID)
	if ck == nil {
		return nil, nil
	}
	return ck.Encode()
}

// janitorLoop periodically expires leases and workers.
func (c *Coordinator) janitorLoop() {
	defer c.loopWG.Done()
	interval := c.cfg.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.janitorOnce(now)
		}
	}
}

// janitorOnce expires leases whose heartbeats lapsed, putting their jobs
// back at the head of their tenant's line in the service's queue (so a
// crash-looping job is retried before the tenant's fresh work without
// jumping other tenants), and prunes workers past the worker TTL. When the
// last worker goes or the reconnect grace ends it wakes the Handoff calls
// holding jobs, which then give them back to their pool workers to run.
func (c *Coordinator) janitorOnce(now time.Time) {
	c.mu.Lock()
	var expired []*lease
	for id, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, id)
			c.m.leasesExpired.Inc()
			c.m.jobsRescheduled.Inc()
			expired = append(expired, l)
			resume := uint64(0)
			if ck := c.cfg.Backend.FreshCheckpoint(id); ck != nil {
				resume = ck.NextEvent
			}
			c.cfg.Logger.Warn("lease expired; rescheduling job",
				"job_id", id, "worker", l.worker, "token", l.token, "resume_event", resume)
		}
	}
	changed := false
	for w, seen := range c.workers {
		if now.Sub(seen) > c.cfg.WorkerTTL {
			delete(c.workers, w)
			changed = true
			c.cfg.Logger.Warn("worker expired", "worker", w)
		}
	}
	if !c.graceUntil.IsZero() && now.After(c.graceUntil) {
		c.graceUntil = time.Time{}
		changed = true
	}
	if changed {
		c.wakeLocked()
	}
	c.m.workers.Set(int64(len(c.workers)))
	c.mu.Unlock()
	for _, l := range expired {
		// Close the expired lease's span with an error so a rescheduled
		// job's trace shows the failed attempt, not a silently vanished
		// subtree.
		c.cfg.Backend.CloseLeaseSpan(l.spec.ID, l.token, "lease expired: heartbeats stopped")
		c.cfg.Backend.Requeue(l.spec.ID)
	}
}

// FleetSnapshot assembles the coordinator's contribution to
// GET /v1/fleet/status: every registered worker with liveness and current
// lease count, queue pressure, and the cumulative dispatch counters.
func (c *Coordinator) FleetSnapshot() FleetSnapshot {
	now := time.Now()
	c.mu.Lock()
	leasesByWorker := make(map[string]int, len(c.workers))
	for _, l := range c.leases {
		leasesByWorker[l.worker]++
	}
	snap := FleetSnapshot{
		Workers: make([]WorkerInfo, 0, len(c.workers)),
		Pending: len(c.held),
		Leased:  len(c.leases),
	}
	for id, seen := range c.workers {
		snap.Workers = append(snap.Workers, WorkerInfo{
			ID:       id,
			LastSeen: seen,
			Live:     now.Sub(seen) <= c.cfg.WorkerTTL,
			Leases:   leasesByWorker[id],
		})
	}
	c.mu.Unlock()
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].ID < snap.Workers[j].ID })
	var fenced int64
	for _, op := range []string{"heartbeat", "checkpoint", "result"} {
		fenced += int64(c.m.fencedWrites.With(op).Value())
	}
	snap.Counters = FleetCounters{
		LeasesGranted:   int64(c.m.leasesGranted.Value()),
		LeasesExpired:   int64(c.m.leasesExpired.Value()),
		Heartbeats:      int64(c.m.heartbeats.Value()),
		FencedWrites:    fenced,
		JobsRescheduled: int64(c.m.jobsRescheduled.Value()),
		JobsInline:      int64(c.m.jobsInline.Value()),
	}
	return snap
}
