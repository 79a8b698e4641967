package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
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

// batchCap bounds how many accepted events a session decodes into its
// driver's window before it spools their frames in one write and replays
// them. The window's columns and the frames are per-session memory; 256
// also replayed faster than 1024.
const batchCap = 256

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

// Session is one live ingestion stream: sequential replay with the trace
// still arriving. Framed chunks are decoded as they come, each event
// checked against the sequence-number protocol and decoded straight into
// the window of the replay driver every batch replay uses, which replays
// it in small batches. At most one ingest request feeds a session at a
// time (StartIngest/Feed/FinishIngest/EndIngest); findings reads and
// lifecycle transitions may race freely with the feed.
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
	// analyzer, cp and replay are the live analysis state, and frames the
	// buffer that feeds the spool. They are dropped when the session goes
	// terminal, and are nil for sessions recovered as history. The driver
	// holds the stream position, the latest checkpoint boundary and, in its
	// window, the accepted events not yet spooled and replayed; s.mu orders
	// its calls, which run on whichever goroutine feeds.
	analyzer tools.Analyzer
	cp       tools.Checkpointer
	replay   *trace.Replayer
	// frames holds the frames of the window's events as they arrived, for
	// the spool.
	frames []byte
	// reports holds a failed or evicted session's findings once its
	// analyzer is dropped.
	reports []report.Report
	// dec decodes the current ingest request's body; each request carries a
	// complete framed stream (header plus frames), so every request gets a
	// fresh decoder and duplicate events are skipped by sequence number.
	dec  *trace.PushDecoder
	busy bool
	// events is the number of events applied. Outside Feed it is also the
	// sequence number the session expects next: clients resume by
	// re-sending from it.
	events      uint64
	bytes       int64
	resumedFrom uint64
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

// newSession builds a live session whose analyzer has applied the first
// start events (a restored checkpoint's position, else 0).
func newSession(h *Hub, id, tool string, a tools.Analyzer, start uint64) *Session {
	now := time.Now()
	s := &Session{
		hub: h, id: id, tool: tool, status: StatusLive,
		analyzer: a,
		events:   start,
		notify:   make(chan struct{}),
		created:  now, lastActive: now,
	}
	s.cp, _ = a.(tools.Checkpointer)
	opts := trace.DurableOptions{StartEvent: start}
	if s.cp != nil && h.cfg.Journal != nil {
		opts.CheckpointEvery = h.cfg.CheckpointEvery
		opts.Checkpoint = s.checkpoint
	}
	s.replay = trace.NewReplayer(opts, a)
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
// under: Record.Traceparent round-trips the session's own traceparent
// through its meta log, so the resumed session keeps the same trace and span
// IDs and its published snapshots replace the pre-crash tree — one trace
// across the crash. The sampling verdict rode along in the flags, so
// recovery never re-rolls the head-sampling dice. Only our own identity is
// journaled; a parent link to an external caller's span does not survive
// the crash, which costs the resumed root its ParentID and nothing else.
func (s *Session) restoreTrace(traceparent string) {
	if s.hub.cfg.Traces == nil {
		return
	}
	ptc, ok := telemetry.ParseTraceparent(traceparent)
	if !ok || !ptc.Sampled {
		return
	}
	s.tc = ptc
	s.span = telemetry.NewSpan("stream", s.created)
	s.span.SetAttr("tool", s.tool)
	s.span.SetAttr("stream_id", s.id)
	s.span.Identify(s.tc, "")
}

// traceparent is the session's own traceparent for journal persistence,
// "" when untraced.
func (s *Session) traceparent() string {
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
// sessions read the analyzer's sink — events dispatch sequentially with
// increasing clocks, so the list only ever appends and an integer cursor
// into it is stable. Terminal sessions serve what was kept when the
// analyzer was dropped: the summary's reports for a done session, the
// copied reports for a failed or evicted one.
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
	s.analyzer, s.cp, s.replay = nil, nil, nil
	s.frames = nil
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

// Feed decodes one chunk of the attached request's body and replays every
// completed event. Corruption, a limit breach, or an analyzer panic fails
// the session (ErrBudget is the exception: the caller decides, normally by
// evicting). Safe against concurrent findings reads and lifecycle
// transitions, not against concurrent Feeds.
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
	err := s.push(s.dec, chunk)
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

// push decodes data through dec into the driver's window and replays the
// events it accepts, those accepted before an error included. Runs under
// s.mu (Feed) or single-threaded during recovery.
func (s *Session) push(dec *trace.PushDecoder, data []byte) (err error) {
	// The analyzer runs arbitrary VSM code; a panic must fail this session,
	// not the daemon — in recovery too, since a batch is spooled before it
	// is replayed.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: analyzer panic: %v", r)
		}
	}()
	err = dec.PushWindow(data, s.replay, func(seq uint64) (bool, error) { return s.accept(dec, seq) })
	if ferr := s.flush(); err == nil {
		err = ferr
	}
	return err
}

// accept enforces the sequence-number protocol on one decoded event,
// reporting whether it joins the window, and flushes a full window first.
func (s *Session) accept(dec *trace.PushDecoder, seq uint64) (bool, error) {
	pending := s.replay.WindowLen()
	next := s.events + uint64(pending)
	if seq < next {
		return false, nil // duplicate from a client resend: already applied
	}
	if seq > next {
		return false, &trace.CorruptionError{Offset: dec.Offset(), Reason: fmt.Sprintf("sequence gap: event %d arrived, session expects %d", seq, next)}
	}
	if m := s.hub.cfg.MaxEvents; m > 0 && next >= uint64(m) {
		return false, fmt.Errorf("%w: more than %d events", trace.ErrTooManyEvents, m)
	}
	if pending == batchCap {
		if err := s.flush(); err != nil {
			return false, err
		}
	}
	if s.spool != nil {
		s.frames = append(s.frames, dec.Frame()...)
	}
	return true, nil
}

// flush appends the window's frames, as they arrived, to the spool in one
// write, then replays the window as the stream's next events. The driver
// checkpoints by batch replay's rule, at batch replay's boundaries, and a
// checkpoint never outruns the spool: the whole window is written before
// any of it is replayed, and a window that was not written is dropped.
func (s *Session) flush() error {
	if s.replay.WindowLen() == 0 {
		return nil
	}
	frames := s.frames
	s.frames = frames[:0]
	if s.spool != nil {
		if _, err := s.spool.Write(frames); err != nil {
			s.replay.ClearWindow()
			return fmt.Errorf("stream: spool append: %w", err)
		}
	}
	if err := faultinject.Fire("stream.replay"); err != nil {
		s.replay.ClearWindow()
		return err
	}
	st, err := s.replay.ReplayWindow(context.Background())
	s.events += st.Events
	s.hub.metrics.eventsTotal.Add(st.Events)
	return err
}

// checkpoint is the driver's checkpoint callback: spool fsync first
// (checkpointed progress must never outrun replayable bytes), then analyzer
// state, then the atomic checkpoint write. A session re-feeding its spool
// in recovery has no spool writer yet and takes no checkpoint. Failures are
// counted and logged, never fatal — a checkpoint is an optimization — and,
// as in batch replay, the next one is due CheckpointEvery events later.
func (s *Session) checkpoint(boundary uint64) error {
	if s.spool == nil {
		return nil
	}
	if err := s.spool.Sync(); err != nil {
		s.hub.metrics.ckptErrors.Inc()
		s.hub.sessionLogger(s).Error("spool fsync failed; skipping checkpoint", "phase", "checkpoint", "err", err)
		return nil
	}
	state, err := s.cp.CheckpointState()
	if err != nil {
		s.hub.metrics.ckptErrors.Inc()
		s.hub.sessionLogger(s).Error("checkpoint state capture failed", "phase", "checkpoint", "err", err)
		return nil
	}
	ck := &trace.Checkpoint{
		JobID: s.id, Tool: s.tool,
		NextEvent: boundary, Events: boundary,
		Created: time.Now(), State: state,
	}
	if err := s.hub.cfg.Journal.WriteCheckpoint(ck); err != nil {
		s.hub.metrics.ckptErrors.Inc()
		s.hub.sessionLogger(s).Error("checkpoint write failed", "phase", "checkpoint", "err", err)
		return nil
	}
	s.hub.metrics.checkpoints.Inc()
	if s.span != nil {
		s.span.SetCount("checkpoint_event", int64(boundary))
		s.publishTraceLocked()
	}
	return nil
}

// replaySpool re-feeds a recovered session's spooled bytes through a fresh
// decoder and the session's own path, with no spool writer and so no
// checkpoints. Events below the checkpoint-restored position are skipped by
// sequence number. A torn tail — the expected damage from a crash
// mid-append — is truncated off; any other corruption is returned and fails
// the session. Runs single-threaded before the session is published.
func (s *Session) replaySpool(data []byte) error {
	dec := trace.NewPushDecoder(trace.Limits{})
	if err := s.push(dec, data); err != nil {
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
			w, err := s.hub.newSpool(s.id)
			if err != nil {
				return err
			}
			w.Close()
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
		if err := s.hub.cfg.Journal.Remove(s.id); err != nil {
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
