// Package stream is arbalestd's live ingestion subsystem: long-lived
// analysis sessions that consume the CRC32C-framed trace encoding as a wire
// protocol and drive the analyzer online, while the traced program is
// still running.
//
// The batch pipeline (internal/service) analyzes finished traces; a Session
// here is sequential replay with the trace still arriving. A client opens a
// session, then ships framed event chunks over one or more ingest requests;
// each chunk is decoded incrementally (trace.PushDecoder), the session
// checks each event's sequence number as it is decoded, and the accepted
// events go straight into the window of the replay driver batch replay
// uses (trace.Replayer), which replays them in small batches as the
// stream's next events — sequential dispatch, the same Seq-derived replay
// clocks — so the findings a session accumulates are byte-identical to
// trace.ReplayDurable over the same events. Findings
// are readable mid-stream with a long-poll cursor; the min-seq dedup in
// report.Sink makes the stream's incremental report list append-only, so a
// plain integer cursor is a stable resume token.
//
// # Durability
//
// With a journal configured, a session is a journal record like a job's:
// the frames of every batch are appended, as they arrived, to its spool
// (<id>.trace) in one write before the batch is replayed; a resent
// duplicate is skipped, not spooled, so the spool is one header followed by
// exactly the accepted frames. The driver checkpoints the analyzer by batch
// replay's index-only barrier rule, at batch replay's boundaries: after a
// non-access event, once CheckpointEvery events have passed since the last
// checkpoint. The spool is fsynced before each checkpoint, so checkpointed
// progress never outruns replayable bytes. After a crash, Restore (or
// Recover, for a hub used on its own) rebuilds each live session from its
// freshest checkpoint, re-feeds the spooled suffix, and leaves the session
// live — the client resumes by asking the session how many events it has
// (View.Events) and re-sending from there; duplicate events are skipped by
// sequence number.
//
// # Protection
//
// Sessions carry a per-stream byte budget and event cap, an admission cap
// (the hub refuses new sessions at MaxStreams, surfaced through /readyz),
// idle eviction by a janitor goroutine, and slow-consumer eviction driven
// by the HTTP layer's read deadlines. Corrupt input — CRC mismatches, torn
// final frames, sequence gaps — fails the session with a counted
// *trace.CorruptionError and never panics or wedges the accept loop.
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/tools"
	"repro/internal/trace"
)

// The session admission and feed errors, mapped to HTTP statuses by the
// service layer (429 saturated, 503 draining, 409 busy/terminal, 413
// budget).
var (
	ErrSaturated = errors.New("stream: session limit reached")
	ErrDraining  = errors.New("stream: shutting down")
	ErrBusy      = errors.New("stream: an ingest request is already attached")
	ErrTerminal  = errors.New("stream: session already terminal")
	ErrBudget    = errors.New("stream: byte budget exhausted")
)

// Config parameterizes a Hub. Registry is required; zero fields take the
// documented defaults.
type Config struct {
	// Registry receives the stream metric families; required (one hub per
	// registry).
	Registry *telemetry.Registry
	// Journal, when non-nil, spools every session for crash recovery.
	Journal *journal.Journal
	// MaxStreams caps concurrently live sessions (default 256,
	// negative = unlimited). The cap feeds the service's readiness probe.
	MaxStreams int
	// MaxBytes is the per-session wire-byte budget (default 256 MiB,
	// negative = unlimited). A session that exceeds it is evicted.
	MaxBytes int64
	// MaxEvents caps a single session's event count (default 1<<20).
	MaxEvents int
	// IdleTimeout evicts live sessions with no ingest activity for this
	// long (default 5m, negative disables).
	IdleTimeout time.Duration
	// CheckpointEvery, with a Journal, checkpoints the analyzer roughly
	// every this many events at the next non-access boundary — the same
	// index-only rule as trace.ReplayDurable. 0 disables.
	CheckpointEvery uint64
	// MaxFinished bounds terminal sessions retained in memory and spool
	// (default 1024, negative = unlimited).
	MaxFinished int
	// Logger receives structured operational logging. Nil discards.
	Logger *slog.Logger
	// AnalyzerStats enables analyzer-level telemetry on capable analyzers.
	AnalyzerStats bool
	// Traces, when non-nil, receives snapshots of every session's span tree
	// so stream traces land in the same queryable store as job traces. Nil
	// disables stream tracing.
	Traces *telemetry.TraceStore
	// Tenants, when non-nil, enforces per-tenant admission: OpenAs spends a
	// rate-limit token and a concurrent-stream slot, and every ingested
	// chunk reserves in-flight bytes, all released when the session leaves
	// the live set. Nil runs the hub single-tenant with no quotas.
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxStreams == 0 {
		c.MaxStreams = 256
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 256 << 20
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.MaxFinished == 0 {
		c.MaxFinished = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Hub owns every streaming session: admission, lookup, recovery, idle
// eviction, and retention. Create with NewHub, optionally Recover (or
// Restore), then Start; stop with Close.
type Hub struct {
	cfg     Config
	metrics *metrics

	mu        sync.Mutex
	sessions  map[string]*Session
	order     []string
	nextID    uint64
	live      int
	closed    bool
	recovered bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewHub builds a hub and registers its metric families on cfg.Registry.
func NewHub(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	return &Hub{
		cfg:      cfg,
		metrics:  newMetrics(cfg.Registry),
		sessions: make(map[string]*Session),
	}
}

// sessionLogger scopes the configured logger to one session, stamping the
// session's trace identity into every line for log/trace correlation. s.tc
// is written once before the session is published and never reassigned, so
// reading it here without s.mu is safe.
func (h *Hub) sessionLogger(s *Session) *slog.Logger {
	return telemetry.LoggerWithTrace(h.cfg.Logger.With("stream_id", s.id, "tool", s.tool), s.tc)
}

// Open admits a new session for the named tool under the default tenant.
// It fails with ErrSaturated at the admission cap and ErrDraining once
// Close has begun.
func (h *Hub) Open(tool, traceparent string) (View, error) {
	return h.OpenAs(tool, traceparent, tenant.DefaultName)
}

// OpenAs is Open under an explicit tenant identity. With Config.Tenants
// set, admission additionally spends one of the tenant's rate-limit tokens
// (*tenant.ThrottledError on refusal) and reserves a concurrent-stream slot
// (tenant.ErrStreamQuota), both attributed to the canonical identity —
// past the registry cap, fabricated names collapse into the shared
// overflow tenant. The slot, plus every byte the session later reserves,
// is released exactly once when the session leaves the live set.
//
// traceparent, when it parses as a W3C trace context, makes the session a
// child of the caller's trace; otherwise a fresh trace is minted subject to
// the store's head sampling. The session's own traceparent is journaled
// write-ahead (Record.Traceparent), so a daemon crash and recovery resumes
// the SAME trace — chunked uploads, the crash, and the resumed feed read as
// one tree.
func (h *Hub) OpenAs(tool, traceparent, tenantName string) (View, error) {
	a, err := tools.NewWithOptions(tool, tools.Options{Stats: h.cfg.AnalyzerStats})
	if err != nil {
		return View{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return View{}, ErrDraining
	}
	var tn *tenant.Tenant
	if h.cfg.Tenants != nil {
		tn = h.cfg.Tenants.Get(tenantName)
		tenantName = tn.Name()
		if err := tn.Admit(); err != nil {
			return View{}, err
		}
	} else {
		tenantName = tenant.Canonical(tenantName)
	}
	if h.cfg.MaxStreams > 0 && h.live >= h.cfg.MaxStreams {
		return View{}, ErrSaturated
	}
	if tn != nil {
		if err := tn.AcquireStream(); err != nil {
			return View{}, err
		}
	}
	id := fmt.Sprintf("stream-%d", h.nextID)
	s := newSession(h, id, tool, a, 0)
	s.tenant = tenantName
	if tn != nil {
		s.tquota = tn
		s.quotaHeld = true
	}
	s.attachTrace(traceparent)
	if h.cfg.Journal != nil {
		// Write-ahead: the session is journaled (live mark plus the spool's
		// framed-format header, fsynced) before it is acknowledged.
		// Traceparent lets recovery rejoin the trace under the same IDs;
		// Tenant re-attributes the slot and the spooled bytes after a crash.
		err := h.cfg.Journal.Append(journal.Record{
			ID: id, Tool: tool, Submitted: s.created, Traceparent: s.traceparent(),
			Tenant: tenantName, Session: true,
		}, nil)
		if err == nil {
			if s.spool, err = h.newSpool(id); err != nil {
				_ = h.cfg.Journal.Remove(id)
			}
		}
		if err != nil {
			s.releaseQuotaLocked()
			return View{}, fmt.Errorf("stream: journal: %w", err)
		}
	}
	h.nextID++
	h.sessions[id] = s
	h.order = append(h.order, id)
	h.live++
	h.metrics.opened.Inc()
	h.metrics.active.Set(int64(h.live))
	h.gcLocked()
	s.publishTrace()
	return s.View(), nil
}

// newSpool opens a session's spool for appending and writes the
// framed-format header, fsynced, so the spool is a valid stream.
func (h *Hub) newSpool(id string) (*journal.StreamWriter, error) {
	w, err := h.cfg.Journal.OpenStreamBytes(id)
	if err != nil {
		return nil, err
	}
	if _, err = w.Write(trace.StreamHeader()); err == nil {
		err = w.Sync()
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// Get returns the identified session.
func (h *Hub) Get(id string) (*Session, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	return s, ok
}

// List returns snapshots of every session in admission order.
func (h *Hub) List() []View {
	h.mu.Lock()
	ids := append([]string(nil), h.order...)
	sessions := make([]*Session, 0, len(ids))
	for _, id := range ids {
		sessions = append(sessions, h.sessions[id])
	}
	h.mu.Unlock()
	out := make([]View, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.View())
	}
	return out
}

// ActiveCount returns the number of live sessions.
func (h *Hub) ActiveCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live
}

// Saturated reports whether the admission cap is reached; the readiness
// probe degrades to 503 while it is.
func (h *Hub) Saturated() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cfg.MaxStreams > 0 && h.live >= h.cfg.MaxStreams
}

// draining reports whether Close has begun.
func (h *Hub) draining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Start launches the idle-eviction janitor. No-op when idle eviction is
// disabled or already started.
func (h *Hub) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.janitorStop != nil || h.cfg.IdleTimeout <= 0 || h.closed {
		return
	}
	h.janitorStop = make(chan struct{})
	h.janitorDone = make(chan struct{})
	go h.janitor(h.janitorStop, h.janitorDone)
}

// janitor periodically evicts live sessions idle past IdleTimeout. Sessions
// with an ingest request attached are never idle — their liveness is the
// HTTP read deadline's problem. The first sweep is staggered by a uniform
// random fraction of the interval so a fleet restarted in unison doesn't
// sweep (and GC-stampede the spool) in lockstep.
func (h *Hub) janitor(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := h.cfg.IdleTimeout / 4
	if interval <= 0 {
		interval = time.Second
	}
	timer := time.NewTimer(time.Duration(rand.Int64N(int64(interval) + 1)))
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
			timer.Reset(interval)
			h.mu.Lock()
			candidates := make([]*Session, 0, h.live)
			for _, s := range h.sessions {
				candidates = append(candidates, s)
			}
			h.mu.Unlock()
			now := time.Now()
			for _, s := range candidates {
				if s.idleSince(now) > h.cfg.IdleTimeout {
					h.Evict(s, "idle")
				}
			}
		}
	}
}

// Evict terminates a live session server-side, recording the reason
// ("idle", "slow", "budget") in the eviction metrics and the journal. It
// reports whether this call performed the transition.
func (h *Hub) Evict(s *Session, reason string) bool {
	if !s.finish(StatusEvicted, "evicted: "+reason) {
		return false
	}
	h.metrics.evicted.With(reason).Inc()
	h.sessionLogger(s).Warn("session evicted", "phase", "evict", "reason", reason)
	h.markStream(s, journal.StatusEvicted, "evicted: "+reason, nil)
	h.dropCheckpoint(s)
	return true
}

// noteFinished updates hub accounting after a session left the live state.
func (h *Hub) noteFinished(status Status) {
	h.mu.Lock()
	h.live--
	h.metrics.active.Set(int64(h.live))
	switch status {
	case StatusDone:
		h.metrics.completed.Inc()
	case StatusFailed:
		h.metrics.failed.Inc()
	}
	h.gcLocked()
	h.mu.Unlock()
}

// markStream journals a session lifecycle transition, logging (never
// failing the session on) journal errors.
func (h *Hub) markStream(s *Session, status, errMsg string, result json.RawMessage) {
	if h.cfg.Journal == nil {
		return
	}
	if err := h.cfg.Journal.Mark(s.id, status, errMsg, result); err != nil {
		h.sessionLogger(s).Error("journal stream mark failed", "phase", status, "err", err)
	}
}

// dropCheckpoint removes a terminal session's obsolete checkpoint file.
func (h *Hub) dropCheckpoint(s *Session) {
	if h.cfg.Journal == nil {
		return
	}
	if err := h.cfg.Journal.RemoveCheckpoint(s.id); err != nil {
		h.sessionLogger(s).Error("checkpoint remove failed", "phase", "gc", "err", err)
	}
}

// gcLocked evicts the oldest terminal sessions beyond MaxFinished, with
// their spool files. The caller must hold h.mu.
func (h *Hub) gcLocked() {
	if h.cfg.MaxFinished < 0 {
		return
	}
	finished := len(h.order) - h.live
	excess := finished - h.cfg.MaxFinished
	if excess <= 0 {
		return
	}
	keep := h.order[:0]
	for _, id := range h.order {
		s := h.sessions[id]
		if excess > 0 && s.terminal() {
			excess--
			delete(h.sessions, id)
			// Trace retention follows session retention: when the session
			// leaves memory and spool, its trace leaves the store.
			if h.cfg.Traces != nil && s.span != nil && s.span.TraceID != "" {
				h.cfg.Traces.Remove(s.span.TraceID)
			}
			if h.cfg.Journal != nil {
				if err := h.cfg.Journal.Remove(id); err != nil {
					h.sessionLogger(s).Error("journal stream remove failed", "phase", "gc", "err", err)
				}
			}
			continue
		}
		keep = append(keep, id)
	}
	h.order = keep
}

// Close stops accepting sessions and feeds, stops the janitor, and closes
// every live session's spool — leaving them journaled live, so the next
// boot's Recover rebuilds them and clients resume where they left off.
// Call after the HTTP server has drained its handlers.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	stop, done := h.janitorStop, h.janitorDone
	h.janitorStop, h.janitorDone = nil, nil
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, s := range sessions {
		s.releaseSpool()
	}
}

// Recover rebuilds the journaled sessions of a hub used on its own: it
// scans the journal's spool and hands the records to Restore, logging the
// scan's repairs and per-record damage. A Service scans its spool once for
// jobs and sessions alike and calls Restore itself.
func (h *Hub) Recover() (int, error) {
	if h.cfg.Journal == nil {
		return 0, errors.New("stream: no journal configured")
	}
	recovered, rstats, errs := h.cfg.Journal.Recover()
	if rstats.TruncatedRecords > 0 {
		h.cfg.Logger.Warn("stream recovery dropped torn or corrupt meta records",
			"phase", "recovery", "records", rstats.TruncatedRecords)
	}
	if rstats.DroppedCheckpoints > 0 {
		h.metrics.ckptErrors.Add(uint64(rstats.DroppedCheckpoints))
		h.cfg.Logger.Warn("stream recovery dropped corrupt checkpoints; affected sessions re-feed their spool",
			"phase", "recovery", "checkpoints", rstats.DroppedCheckpoints)
	}
	for _, err := range errs {
		h.cfg.Logger.Error("stream recovery error", "phase", "recovery", "err", err)
	}
	return h.Restore(recovered)
}

// Restore rebuilds the session records among recovered (job records are
// skipped): live sessions are restored from their freshest checkpoint plus
// the spooled event suffix and stay live for client resume; terminal
// sessions come back as history. Must run after NewHub and before Start, at
// most once. Returns the number of live sessions rebuilt. A session that
// cannot be rebuilt is logged and marked failed — except for a torn spool
// tail, which is truncated off, exactly like a torn meta record.
func (h *Hub) Restore(recovered []journal.RecoveredJob) (int, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, ErrDraining
	}
	if h.recovered {
		h.mu.Unlock()
		return 0, errors.New("stream: recovery ran twice")
	}
	h.recovered = true
	h.mu.Unlock()

	liveCount := 0
	for _, rs := range recovered {
		if !rs.Session {
			continue
		}
		s := h.rebuild(rs)
		if s == nil {
			continue
		}
		h.mu.Lock()
		if _, exists := h.sessions[s.id]; exists {
			h.mu.Unlock()
			continue
		}
		h.sessions[s.id] = s
		h.order = append(h.order, s.id)
		if s.status == StatusLive {
			h.live++
			liveCount++
			h.metrics.recovered.Inc()
			h.metrics.active.Set(int64(h.live))
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(rs.ID, "stream-"), 10, 64); err == nil && n >= h.nextID {
			h.nextID = n + 1
		}
		h.mu.Unlock()
	}
	return liveCount, nil
}

// rebuild reconstructs one journaled session. Terminal sessions become
// history (summary unmarshaled from the journaled result); live sessions
// get a fresh analyzer, the checkpoint restored when possible, and the
// spooled suffix re-fed. Returns nil when the session cannot be rebuilt at
// all (it is then marked failed in the journal so it won't return).
func (h *Hub) rebuild(rs journal.RecoveredJob) *Session {
	if rs.Status != journal.StatusLive {
		s := &Session{
			hub: h, id: rs.ID, tool: rs.Tool, status: Status(rs.Status),
			tenant:  tenant.Canonical(rs.Tenant),
			created: rs.Submitted, finished: rs.Finished, errMsg: rs.Error,
			notify: make(chan struct{}),
		}
		if len(rs.Result) > 0 {
			var sum tools.Summary
			if err := json.Unmarshal(rs.Result, &sum); err == nil {
				s.summary = &sum
			}
		}
		return s
	}

	// Restore the freshest checkpoint when the analyzer supports it; a
	// failed restore falls back to a clean analyzer and a full re-feed.
	a, start, restoreErr, err := tools.Resume(rs.Tool, tools.Options{Stats: h.cfg.AnalyzerStats}, rs.Checkpoint)
	if err != nil {
		h.cfg.Logger.Error("recovered session names unknown tool; marking failed",
			"phase", "recovery", "stream_id", rs.ID, "tool", rs.Tool, "err", err)
		_ = h.cfg.Journal.Mark(rs.ID, journal.StatusFailed, err.Error(), nil)
		return nil
	}
	s := newSession(h, rs.ID, rs.Tool, a, start)
	s.created = rs.Submitted
	s.tenant = tenant.Canonical(rs.Tenant)
	s.restoreTrace(rs.Traceparent)
	if restoreErr != nil {
		h.metrics.ckptErrors.Inc()
		h.sessionLogger(s).Error("stream checkpoint restore failed; re-feeding from scratch",
			"phase", "recovery", "err", restoreErr)
	} else if start > 0 {
		s.resumedFrom = start
		h.sessionLogger(s).Info("resuming stream from checkpoint",
			"phase", "recovery", "resume_event", s.events)
	}

	// The recovery work is itself a span on the resumed trace: where the
	// checkpoint put the session and how far the spooled suffix carried it.
	var restoreSpan *telemetry.Span
	if s.span != nil {
		restoreSpan = s.span.StartChild("restore", time.Time{})
		restoreSpan.SetCount("resume_event", int64(s.resumedFrom))
	}

	// Re-feed the spool: events below the restored position are skipped by
	// sequence number, the rest advance the analyzer exactly as the
	// original feeds did.
	if err := s.replaySpool(rs.Bytes); err != nil {
		var ce *trace.CorruptionError
		if errors.As(err, &ce) {
			h.metrics.corruption.Inc()
		}
		h.sessionLogger(s).Error("spool re-feed failed; marking session failed",
			"phase", "recovery", "err", err)
		s.status = StatusFailed
		s.finished = time.Now()
		s.errMsg = fmt.Sprintf("recovery: %v", err)
		if restoreSpan != nil {
			restoreSpan.SetError(err.Error())
			restoreSpan.EndAt(time.Time{})
		}
		s.endTraceLocked()
		_ = h.cfg.Journal.Mark(rs.ID, journal.StatusFailed, s.errMsg, nil)
		return s
	}
	if restoreSpan != nil {
		restoreSpan.SetCount("refed_event", int64(s.events))
		restoreSpan.EndAt(time.Time{})
	}
	w, err := h.cfg.Journal.OpenStreamBytes(rs.ID)
	if err != nil {
		h.sessionLogger(s).Error("spool reopen failed; marking session failed",
			"phase", "recovery", "err", err)
		s.status = StatusFailed
		s.finished = time.Now()
		s.errMsg = fmt.Sprintf("recovery: %v", err)
		s.endTraceLocked()
		_ = h.cfg.Journal.Mark(rs.ID, journal.StatusFailed, s.errMsg, nil)
		return s
	}
	s.spool = w
	// Re-attribute the session to its tenant without enforcement: an
	// admitted session is never dropped at restart, even over a shrunken
	// quota — the occupancy simply reports over quota until it drains. The
	// spooled bytes are the session's in-flight byte footprint.
	if h.cfg.Tenants != nil {
		tn := h.cfg.Tenants.Get(s.tenant)
		s.tenant = tn.Name()
		tn.AdoptStream(s.bytes)
		s.tquota = tn
		s.reserved = s.bytes
		s.quotaHeld = true
	}
	s.publishTraceLocked()
	return s
}
