package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/ompt"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/tools"
	"repro/internal/trace"
)

// maxIngestSpans caps "ingest" child spans per session: long sessions ship
// many chunked requests and the trace must stay bounded. Requests past the
// cap still advance the root span's progress counts.
const maxIngestSpans = 32

// Status is a session's position in its lifecycle. Sessions are born live
// and reach exactly one terminal state: done (client closed cleanly),
// failed (corrupt input, limits, analyzer panic, abort), or evicted (the
// server ended it). The values match the journal's stream statuses so a
// recovered session's status round-trips unchanged.
type Status string

// The session lifecycle states.
const (
	StatusLive    Status = Status(journal.StatusLive)
	StatusDone    Status = Status(journal.StatusDone)
	StatusFailed  Status = Status(journal.StatusFailed)
	StatusEvicted Status = Status(journal.StatusEvicted)
)

// Session is one live ingestion stream: an analyzer advanced online, event
// by event, as framed chunks arrive. At most one ingest request feeds a
// session at a time (StartIngest/Feed/FinishIngest/EndIngest); findings
// reads and lifecycle transitions may race freely with the feed.
type Session struct {
	hub  *Hub
	id   string
	tool string
	// tenant is the canonical identity the session was admitted under;
	// assigned before publication and never reassigned.
	tenant string

	mu     sync.Mutex
	status Status
	// tquota is the tenant charged for this session's stream slot and
	// in-flight bytes; nil when the hub runs without a tenant registry.
	// quotaHeld guarantees the slot and reserved bytes are released exactly
	// once, whichever terminal path wins.
	tquota    *tenant.Tenant
	quotaHeld bool
	reserved  int64
	// analyzer, cp and d are the live analysis state. They are dropped when
	// the session goes terminal, and are nil for sessions recovered as
	// history.
	analyzer tools.Analyzer
	cp       tools.Checkpointer
	d        ompt.Dispatcher
	// reports holds a failed or evicted session's findings once its
	// analyzer is dropped.
	reports []report.Report
	// dec decodes the current ingest request's body; each request carries a
	// complete framed stream (header plus frames), so every request gets a
	// fresh decoder and duplicate events are skipped by sequence number.
	dec  *trace.PushDecoder
	busy bool
	// recovering suppresses checkpoint cuts while the spool is re-fed.
	recovering bool
	// events is the number of events applied — equivalently, the sequence
	// number the session expects next. Clients resume by re-sending from it.
	events uint64
	bytes  int64
	// lastCkpt is the boundary of the latest durable checkpoint.
	lastCkpt    uint64
	resumedFrom uint64
	frameBuf    []byte
	spool       *journal.StreamWriter
	// notify is closed and replaced whenever findings may have grown or the
	// status changed; long-pollers re-check after each close.
	notify     chan struct{}
	created    time.Time
	lastActive time.Time
	finished   time.Time
	errMsg     string
	summary    *tools.Summary
	// tc and span are the session's distributed-tracing identity: a root
	// "stream" span whose snapshots are published to the hub's trace store.
	// Both are assigned once before the session is published and never
	// reassigned, so reading the pointer and the identity fields outside
	// s.mu (logging, hub GC) is safe; the span's mutable interior is only
	// touched under s.mu or before publication.
	tc     telemetry.TraceContext
	span   *telemetry.Span
	ingest *telemetry.Span
}

func newSession(h *Hub, id, tool string, a tools.Analyzer) *Session {
	now := time.Now()
	s := &Session{
		hub: h, id: id, tool: tool, status: StatusLive,
		analyzer: a,
		notify:   make(chan struct{}),
		created:  now, lastActive: now,
	}
	s.cp, _ = a.(tools.Checkpointer)
	s.d.Register(a)
	if h.cfg.Exclusive {
		// Feed and recovery both dispatch under s.mu, so callbacks are
		// mutually excluded and the mutex's release/acquire edges publish
		// shadow writes between feeds — the single-owner contract holds
		// even though successive feeds may run on different goroutines.
		s.d.SetDispatchMode(ompt.DispatchSequential)
	}
	return s
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// attachTrace gives a newly opened session its distributed-tracing
// identity. A parseable sampled traceparent joins the caller's trace (the
// session's root "stream" span becomes a child of the caller's span); an
// unsampled one keeps the session untraced, honoring the caller's verdict;
// no traceparent mints a fresh trace subject to the store's head sampling.
// Runs before the session is published.
func (s *Session) attachTrace(traceparent string) {
	if s.hub.cfg.Traces == nil {
		return
	}
	parentID := ""
	if ptc, ok := telemetry.ParseTraceparent(traceparent); ok {
		if !ptc.Sampled {
			return
		}
		s.tc = telemetry.TraceContext{TraceID: ptc.TraceID, SpanID: telemetry.NewSpanID(), Sampled: true}
		parentID = ptc.SpanID
	} else if s.hub.cfg.Traces.Admit() {
		s.tc = telemetry.NewTraceContext()
	} else {
		return
	}
	s.span = telemetry.NewSpan("stream", s.created)
	s.span.SetAttr("tool", s.tool)
	s.span.SetAttr("stream_id", s.id)
	s.span.Identify(s.tc, parentID)
}

// restoreTrace rejoins a recovered session to the trace it was opened
// under: Record.Key round-trips the session's own traceparent through the
// stream meta file, so the resumed session keeps the same trace and span
// IDs and its published snapshots replace the pre-crash tree — one trace
// across the crash. The sampling verdict rode along in the flags, so
// recovery never re-rolls the head-sampling dice. Only our own identity is
// journaled; a parent link to an external caller's span does not survive
// the crash, which costs the resumed root its ParentID and nothing else.
func (s *Session) restoreTrace(key string) {
	if s.hub.cfg.Traces == nil {
		return
	}
	ptc, ok := telemetry.ParseTraceparent(key)
	if !ok || !ptc.Sampled {
		return
	}
	s.tc = ptc
	s.span = telemetry.NewSpan("stream", s.created)
	s.span.SetAttr("tool", s.tool)
	s.span.SetAttr("stream_id", s.id)
	s.span.Identify(s.tc, "")
}

// traceKey is the session's own traceparent for journal persistence, ""
// when untraced.
func (s *Session) traceKey() string {
	if !s.tc.Valid() {
		return ""
	}
	return s.tc.Traceparent()
}

// publishTraceLocked snapshots the span tree into the trace store with the
// session's progress counts stamped on the root. The caller holds s.mu or
// owns a session that is not yet published (open, recovery).
func (s *Session) publishTraceLocked() {
	if s.hub.cfg.Traces == nil || s.span == nil || s.span.TraceID == "" {
		return
	}
	s.span.SetCount("events", int64(s.events))
	s.span.SetCount("bytes", s.bytes)
	s.hub.cfg.Traces.Put(s.span.TraceID, s.span.Clone())
}

// publishTrace is publishTraceLocked behind the session lock.
func (s *Session) publishTrace() {
	s.mu.Lock()
	s.publishTraceLocked()
	s.mu.Unlock()
}

// endTraceLocked closes the session's root span from the settled terminal
// state and publishes the final snapshot. Locking contract as
// publishTraceLocked.
func (s *Session) endTraceLocked() {
	if s.span == nil || s.span.TraceID == "" {
		return
	}
	if s.ingest != nil {
		s.ingest.EndAt(time.Time{})
		s.ingest = nil
	}
	if s.errMsg != "" {
		s.span.SetError(s.errMsg)
	}
	if s.summary != nil {
		s.span.SetCount("issues", int64(s.summary.Issues))
	}
	s.span.EndAt(s.finished)
	s.publishTraceLocked()
}

// View is the immutable, JSON-serializable snapshot of a session served by
// the HTTP API.
type View struct {
	ID     string `json:"id"`
	Tool   string `json:"tool"`
	Status Status `json:"status"`
	// Tenant is the identity the session was admitted under.
	Tenant string `json:"tenant,omitempty"`
	// Events is the number of events applied so far — the sequence number a
	// resuming client should send next.
	Events   uint64 `json:"events"`
	Bytes    int64  `json:"bytes"`
	Findings int    `json:"findings"`
	// ResumedFrom, when nonzero, is the checkpoint boundary this session was
	// restored from after a daemon restart.
	ResumedFrom uint64         `json:"resumedFrom,omitempty"`
	Created     time.Time      `json:"created"`
	Finished    *time.Time     `json:"finished,omitempty"`
	Error       string         `json:"error,omitempty"`
	Result      *tools.Summary `json:"result,omitempty"`
	// TraceID names the session's distributed trace at GET /v1/traces/{id};
	// empty when the session is untraced.
	TraceID string `json:"traceId,omitempty"`
}

// View snapshots the session.
func (s *Session) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked()
}

// viewLocked snapshots the session; the caller must hold s.mu.
func (s *Session) viewLocked() View {
	v := View{
		ID:          s.id,
		Tool:        s.tool,
		Status:      s.status,
		Tenant:      s.tenant,
		Events:      s.events,
		Bytes:       s.bytes,
		Findings:    len(s.reportsLocked()),
		ResumedFrom: s.resumedFrom,
		Created:     s.created,
		Error:       s.errMsg,
		Result:      s.summary,
	}
	if !s.finished.IsZero() {
		t := s.finished
		v.Finished = &t
	}
	if s.span != nil {
		v.TraceID = s.span.TraceID
	}
	return v
}

// reportsLocked returns the session's findings in replay-clock order. Live
// sessions read the analyzer's sink — in online mode events dispatch
// sequentially with increasing clocks, so the list only ever appends and an
// integer cursor into it is stable. Terminal sessions serve what was kept
// when the analyzer was dropped: the summary's reports for a done session,
// the copied reports for a failed or evicted one.
func (s *Session) reportsLocked() []report.Report {
	switch {
	case s.analyzer != nil:
		rs := s.analyzer.Sink().Reports()
		out := make([]report.Report, len(rs))
		for i, r := range rs {
			out[i] = *r
		}
		return out
	case s.reports != nil:
		return s.reports
	case s.summary != nil:
		return s.summary.Reports
	}
	return nil
}

// dropAnalyzerLocked lets go of the session's analysis state, shadow slabs
// and race state included, so a finished session costs only its findings
// until retention GC. release returns the slabs to the arena; only the clean
// path passes it, since a failed analyzer may be mid-callback or corrupt.
// The caller holds s.mu.
func (s *Session) dropAnalyzerLocked(release bool) {
	if s.analyzer == nil {
		return
	}
	if rel, ok := s.analyzer.(tools.Releaser); ok && release {
		rel.Release()
	}
	s.analyzer, s.cp, s.d = nil, nil, ompt.Dispatcher{}
}

// notifyLocked wakes every long-poller; the caller must hold s.mu.
func (s *Session) notifyLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// terminal reports whether the session has left the live state.
func (s *Session) terminal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status != StatusLive
}

// idleSince returns how long the session has been live with no ingest
// activity; zero for terminal sessions and sessions with a request attached
// (their liveness is the read deadline's problem).
func (s *Session) idleSince(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status != StatusLive || s.busy {
		return 0
	}
	return now.Sub(s.lastActive)
}

// StartIngest attaches an ingest request to the session: exactly one at a
// time, each with a fresh decoder (every request body is a complete framed
// stream). Fails with ErrBusy, ErrTerminal, or ErrDraining.
func (s *Session) StartIngest() error {
	if s.hub.draining() {
		return ErrDraining
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status != StatusLive {
		return ErrTerminal
	}
	if s.busy {
		return ErrBusy
	}
	s.busy = true
	s.dec = trace.NewPushDecoder(trace.Limits{})
	s.lastActive = time.Now()
	if s.span != nil && len(s.span.Children) < maxIngestSpans {
		s.ingest = s.span.StartChild("ingest", time.Time{})
	}
	return nil
}

// EndIngest detaches the current ingest request. Always pairs with a
// successful StartIngest, whatever the request's fate — the session itself
// may live on for the client to resume.
func (s *Session) EndIngest() {
	s.mu.Lock()
	s.busy = false
	s.dec = nil
	s.lastActive = time.Now()
	if s.ingest != nil {
		// The counts are the session's cumulative position as the request
		// detached, so consecutive ingest spans read as a progress series.
		s.ingest.SetCount("events", int64(s.events))
		s.ingest.SetCount("bytes", s.bytes)
		s.ingest.EndAt(time.Time{})
		s.ingest = nil
		s.publishTraceLocked()
	}
	s.mu.Unlock()
}

// Feed decodes one chunk of the attached request's body, applying every
// completed event to the analyzer. Corruption, a limit breach, or an
// analyzer panic fails the session (ErrBudget is the exception: the caller
// decides, normally by evicting). Safe against concurrent findings reads
// and lifecycle transitions, not against concurrent Feeds.
func (s *Session) Feed(chunk []byte) error {
	start := time.Now()
	s.mu.Lock()
	if s.status != StatusLive {
		s.mu.Unlock()
		return ErrTerminal
	}
	if s.dec == nil {
		s.mu.Unlock()
		return ErrBusy
	}
	if s.hub.cfg.MaxBytes > 0 && s.bytes+int64(len(chunk)) > s.hub.cfg.MaxBytes {
		s.mu.Unlock()
		return ErrBudget
	}
	// Charge the chunk against the tenant's in-flight byte quota before any
	// state advances: a refusal (tenant.ErrByteQuota, HTTP 429) leaves the
	// session live — the quota is shared occupancy that frees up as the
	// tenant's other work drains, so the client simply retries the chunk.
	if s.quotaHeld {
		if err := s.tquota.ReserveBytes(int64(len(chunk))); err != nil {
			s.mu.Unlock()
			return err
		}
		s.reserved += int64(len(chunk))
	}
	s.bytes += int64(len(chunk))
	s.lastActive = start
	dec := s.dec
	var err error
	func() {
		// The analyzer runs arbitrary VSM code; a panic must fail this
		// session, not the daemon.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("stream: analyzer panic: %v", r)
			}
		}()
		err = dec.Push(chunk, func(e *trace.Event) error { return s.applyEvent(dec, e) })
	}()
	if err == nil {
		s.notifyLocked()
	}
	s.mu.Unlock()
	s.hub.metrics.bytesTotal.Add(uint64(len(chunk)))
	s.hub.metrics.chunkDecode.Observe(time.Since(start).Seconds())
	if err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// FinishIngest declares the attached request's body cleanly finished. A
// torn final frame at a clean end-of-body is client corruption and fails
// the session; an empty body is a no-op (a liveness probe). Read errors
// mid-body must NOT come here — just EndIngest, and the session stays live
// for resume.
func (s *Session) FinishIngest() error {
	s.mu.Lock()
	dec := s.dec
	s.mu.Unlock()
	if dec == nil || (dec.Offset() == 0 && dec.Pending() == 0) {
		return nil
	}
	if err := dec.Finish(); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// applyEvent applies one decoded event: enforce the sequence-number
// protocol, dispatch through the same path as batch replay, append to the
// spool, and cut a checkpoint when one is due. Runs under s.mu (called from
// the decoder inside Feed) or single-threaded during recovery.
func (s *Session) applyEvent(dec *trace.PushDecoder, e *trace.Event) error {
	if e.Seq < s.events {
		return nil // duplicate from a client resend: already applied
	}
	if e.Seq > s.events {
		return &trace.CorruptionError{Offset: dec.Offset(), Reason: fmt.Sprintf("sequence gap: event %d arrived, session expects %d", e.Seq, s.events)}
	}
	if m := s.hub.cfg.MaxEvents; m > 0 && s.events >= uint64(m) {
		return fmt.Errorf("%w: more than %d events", trace.ErrTooManyEvents, m)
	}
	if err := e.Dispatch(&s.d); err != nil {
		return err
	}
	boundary := s.events + 1
	s.events = boundary
	s.hub.metrics.eventsTotal.Inc()
	if s.spool != nil {
		b, err := trace.AppendEventFrame(s.frameBuf[:0], e)
		if err != nil {
			return fmt.Errorf("stream: spool frame: %w", err)
		}
		s.frameBuf = b
		if _, err := s.spool.Write(b); err != nil {
			return fmt.Errorf("stream: spool append: %w", err)
		}
	}
	// The durable replay's rule, so a stream and a batch replay checkpoint
	// at identical boundaries.
	if !s.recovering && s.cp != nil && s.hub.cfg.Journal != nil &&
		trace.CheckpointDue(e.Kind, boundary, s.lastCkpt, s.hub.cfg.CheckpointEvery) {
		s.checkpointLocked(boundary)
	}
	return nil
}

// checkpointLocked cuts a durable checkpoint at boundary: spool fsync
// first (checkpointed progress must never outrun replayable bytes), then
// analyzer state, then the atomic checkpoint write. Failures are counted
// and logged, never fatal — a checkpoint is an optimization.
func (s *Session) checkpointLocked(boundary uint64) {
	if s.spool != nil {
		if err := s.spool.Sync(); err != nil {
			s.hub.metrics.ckptErrors.Inc()
			s.hub.sessionLogger(s).Error("spool fsync failed; skipping checkpoint", "phase", "checkpoint", "err", err)
			return
		}
	}
	state, err := s.cp.CheckpointState()
	if err != nil {
		s.hub.metrics.ckptErrors.Inc()
		s.hub.sessionLogger(s).Error("checkpoint state capture failed", "phase", "checkpoint", "err", err)
		return
	}
	ck := &trace.Checkpoint{
		JobID: s.id, Tool: s.tool,
		NextEvent: boundary, Events: boundary,
		Created: time.Now(), State: state,
	}
	if err := s.hub.cfg.Journal.WriteCheckpoint(ck); err != nil {
		s.hub.metrics.ckptErrors.Inc()
		s.hub.sessionLogger(s).Error("checkpoint write failed", "phase", "checkpoint", "err", err)
		return
	}
	s.lastCkpt = boundary
	s.hub.metrics.checkpoints.Inc()
	if s.span != nil {
		s.span.SetCount("checkpoint_event", int64(boundary))
		s.publishTraceLocked()
	}
}

// replaySpool re-feeds a recovered session's spooled bytes through a fresh
// decoder. Events below the checkpoint-restored position are skipped by
// sequence number. A torn tail — the expected damage from a crash
// mid-append — is truncated off; any other corruption is returned and fails
// the session. Runs single-threaded before the session is published.
func (s *Session) replaySpool(data []byte) error {
	s.recovering = true
	defer func() { s.recovering = false }()
	dec := trace.NewPushDecoder(trace.Limits{})
	if err := dec.Push(data, func(e *trace.Event) error { return s.applyEvent(dec, e) }); err != nil {
		return err
	}
	if ferr := dec.Finish(); ferr != nil {
		off := dec.Offset()
		hdr := int64(len(trace.StreamHeader()))
		if off < hdr {
			off = 0
		}
		if err := s.hub.cfg.Journal.TruncateStreamBytes(s.id, off); err != nil {
			return err
		}
		if off == 0 {
			// Not even a whole header survived; restart the spool so future
			// appends form a valid stream.
			w, err := s.hub.cfg.Journal.OpenStreamBytes(s.id)
			if err != nil {
				return err
			}
			if _, err := w.Write(trace.StreamHeader()); err == nil {
				err = w.Sync()
			}
			w.Close()
			if err != nil {
				return err
			}
		}
		s.hub.sessionLogger(s).Warn("truncated torn spool tail",
			"phase", "recovery", "spool_bytes", len(data), "kept", off)
	}
	s.bytes = dec.Offset()
	return nil
}

// Finalize closes the session cleanly: summarize the analyzer, go terminal
// done, journal the result. Idempotence is the HTTP layer's concern — a
// second call returns ErrTerminal with the settled view.
func (s *Session) Finalize() (View, error) {
	s.mu.Lock()
	if s.status != StatusLive {
		v := s.viewLocked()
		s.mu.Unlock()
		return v, ErrTerminal
	}
	if s.busy {
		s.mu.Unlock()
		return View{}, ErrBusy
	}
	sum := tools.Summarize(s.analyzer)
	if sum.Reports == nil {
		// The findings page of a session without findings lists [], not
		// null, as it did while the session was live.
		sum.Reports = []report.Report{}
	}
	s.summary = sum
	s.dropAnalyzerLocked(true)
	s.status = StatusDone
	s.finished = time.Now()
	s.endTraceLocked()
	s.notifyLocked()
	s.releaseSpoolLocked()
	s.releaseQuotaLocked()
	v := s.viewLocked()
	s.mu.Unlock()
	s.hub.noteFinished(StatusDone)
	s.hub.markStream(s, journal.StatusDone, "", mustJSON(sum))
	s.hub.dropCheckpoint(s)
	s.hub.sessionLogger(s).Info("session completed", "phase", "close",
		"events", v.Events, "bytes", v.Bytes, "issues", sum.Issues)
	return v, nil
}

// Abort ends the session at the client's request (DELETE) and removes its
// journal state entirely: an aborted stream is not worth recovering.
// Reports whether this call performed the transition.
func (s *Session) Abort() bool {
	if !s.finish(StatusFailed, "aborted by client") {
		return false
	}
	if s.hub.cfg.Journal != nil {
		if err := s.hub.cfg.Journal.RemoveStream(s.id); err != nil {
			s.hub.sessionLogger(s).Error("journal stream remove failed", "phase", "abort", "err", err)
		}
	}
	s.hub.sessionLogger(s).Info("session aborted", "phase", "abort")
	return true
}

// fail moves the session to failed exactly once, counting corruption and
// journaling the error.
func (s *Session) fail(err error) {
	if !s.finish(StatusFailed, err.Error()) {
		return
	}
	var ce *trace.CorruptionError
	if errors.As(err, &ce) {
		s.hub.metrics.corruption.Inc()
	}
	s.hub.sessionLogger(s).Warn("session failed", "phase", "ingest", "err", err)
	s.hub.markStream(s, journal.StatusFailed, err.Error(), nil)
	s.hub.dropCheckpoint(s)
}

// finish performs the exactly-once live → terminal transition for the
// failed and evicted paths: keep the findings so far, drop the analyzer,
// wake long-pollers, release the spool, and settle hub accounting. Reports
// whether this call won the transition. Never called with s.mu held.
func (s *Session) finish(status Status, errMsg string) bool {
	s.mu.Lock()
	if s.status != StatusLive {
		s.mu.Unlock()
		return false
	}
	s.status = status
	s.errMsg = errMsg
	if s.analyzer != nil {
		s.reports = s.reportsLocked()
	}
	s.dropAnalyzerLocked(false)
	s.finished = time.Now()
	s.endTraceLocked()
	s.notifyLocked()
	s.releaseSpoolLocked()
	s.releaseQuotaLocked()
	s.mu.Unlock()
	s.hub.noteFinished(status)
	return true
}

// releaseQuotaLocked returns the session's tenant stream slot and reserved
// bytes exactly once (quotaHeld arms it at admission or recovery). Called
// from every live → terminal transition; the caller holds s.mu or owns a
// session that is not yet published.
func (s *Session) releaseQuotaLocked() {
	if !s.quotaHeld {
		return
	}
	s.quotaHeld = false
	s.tquota.ReleaseStream()
	s.tquota.ReleaseBytes(s.reserved)
	s.reserved = 0
}

// releaseSpool syncs and closes the session's spool writer (hub shutdown
// path; the bytes stay on disk for recovery).
func (s *Session) releaseSpool() {
	s.mu.Lock()
	s.releaseSpoolLocked()
	s.mu.Unlock()
}

func (s *Session) releaseSpoolLocked() {
	if s.spool == nil {
		return
	}
	if err := s.spool.Sync(); err != nil {
		s.hub.sessionLogger(s).Error("spool fsync failed on release", "phase", "close", "err", err)
	}
	if err := s.spool.Close(); err != nil {
		s.hub.sessionLogger(s).Error("spool close failed", "phase", "close", "err", err)
	}
	s.spool = nil
}

// FindingsView is one page of a session's findings: everything from the
// Since cursor on, plus the Next cursor to poll from. Reports are in
// replay-clock order and the list only appends while the session lives, so
// cursors from earlier reads stay valid.
type FindingsView struct {
	ID      string          `json:"id"`
	Status  Status          `json:"status"`
	Since   int             `json:"since"`
	Next    int             `json:"next"`
	Reports []report.Report `json:"reports"`
}

// Findings returns the session's findings from the since cursor on.
func (s *Session) Findings(since int) FindingsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findingsLocked(since)
}

func (s *Session) findingsLocked(since int) FindingsView {
	all := s.reportsLocked()
	if since < 0 {
		since = 0
	}
	if since > len(all) {
		since = len(all)
	}
	return FindingsView{
		ID: s.id, Status: s.status,
		Since: since, Next: len(all),
		Reports: all[since:],
	}
}

// WaitFindings long-polls: it returns as soon as the session has findings
// past the since cursor or goes terminal, or when wait (or ctx) expires —
// then with an empty page the client re-polls from. The notify channel is
// snapshotted before the findings are read, so a report arriving between
// the read and the wait still wakes this poller.
func (s *Session) WaitFindings(ctx context.Context, since int, wait time.Duration) FindingsView {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		s.mu.Lock()
		ch := s.notify
		fv := s.findingsLocked(since)
		terminal := s.status != StatusLive
		s.mu.Unlock()
		if len(fv.Reports) > 0 || terminal || wait <= 0 {
			return fv
		}
		select {
		case <-ctx.Done():
			return fv
		case <-timer.C:
			return fv
		case <-ch:
		}
	}
}

// mustJSON marshals v, returning nil on failure (the journal result is
// best-effort; the in-memory summary is authoritative until GC).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}
