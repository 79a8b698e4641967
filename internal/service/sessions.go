// Stream sessions in the record table. A session is a record like a job,
// with status live while its trace grows; the service admits it, traces
// it, ends it through finish, retains, sweeps, shuts down and recovers it
// as it does a job. stream.Session keeps only the ingest: sequence checks,
// the replay window, spool writes, checkpoints, findings and long-polls.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/journal"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/tools"
	"repro/internal/trace"
)

// ErrStreamsSaturated refuses a session open at the MaxStreams cap (HTTP
// 429); /readyz degrades while the cap holds.
var ErrStreamsSaturated = errors.New("stream: session limit reached")

// errNoStream answers an unknown session id (HTTP 404).
var errNoStream = errors.New("service: no such stream")

// maxIngestSpans caps "ingest" child spans per session: long sessions ship
// many chunked requests and the trace must stay bounded. Requests past the
// cap still advance the root span's progress counts.
const maxIngestSpans = 32

// OpenStream admits a new session for the named tool under a tenant
// identity. Admission spends one of the tenant's rate-limit tokens
// (*tenant.ThrottledError on refusal), takes a place under MaxStreams
// (ErrStreamsSaturated) and reserves the tenant's concurrent-stream slot
// (tenant.ErrStreamQuota); the slot, plus every byte the session accepts,
// is released exactly once when the session ends. Once Shutdown has begun
// it fails with stream.ErrDraining.
//
// traceparent, when it parses as a W3C trace context, makes the session a
// child of the caller's trace; otherwise a fresh trace is minted subject to
// head sampling. With a journal the session is journaled write-ahead — its
// live mark, carrying its own traceparent and tenant, then its spool's
// header, each fsynced outside s.mu — before it is acknowledged, so a
// daemon crash and recovery resume the same session in the same trace.
func (s *Service) OpenStream(tool, traceparent, tenantName string) (stream.View, error) {
	if err := tools.Known(tool); err != nil {
		return stream.View{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return stream.View{}, stream.ErrDraining
	}
	tn := s.tenants.Get(tenantName)
	err := tn.Admit()
	if err == nil && s.cfg.MaxStreams > 0 && s.live >= s.cfg.MaxStreams {
		err = ErrStreamsSaturated
	}
	if err == nil {
		err = tn.AcquireStream()
	}
	if err != nil {
		s.mu.Unlock()
		return stream.View{}, err
	}
	j := &record{
		id: fmt.Sprintf("stream-%d", s.nextStream), tool: tool, tenant: tn.Name(),
		status: statusLive, submitted: time.Now(), quotaHeld: true,
	}
	s.nextStream++
	s.live++
	s.mu.Unlock()

	tc, parent := s.traceContext(traceparent)
	j.identify(true, tc, parent, j.submitted)
	j.sess, _, err = stream.New(j.id, tool, tools.Options{Stats: s.cfg.AnalyzerStats}, nil, s.sessionOptions(j, tn))
	if err == nil && s.cfg.Journal != nil {
		err = s.cfg.Journal.Append(journal.Record{
			ID: j.id, Tool: tool, Submitted: j.submitted, Traceparent: j.traceparent(),
			Tenant: j.tenant, Session: true,
		}, nil)
		if err == nil {
			if err = j.sess.CreateSpool(); err != nil {
				_ = s.cfg.Journal.Remove(j.id)
			}
		}
		if err != nil {
			s.metrics.journalError("append")
			err = fmt.Errorf("stream: journal: %w", err)
		}
	}
	if err != nil {
		s.mu.Lock()
		s.live--
		s.releaseQuotaLocked(j)
		s.mu.Unlock()
		return stream.View{}, err
	}
	s.mu.Lock()
	s.records[j.id] = j
	s.order = append(s.order, j.id)
	closed := s.closed
	s.metrics.streamsOpened.Inc()
	s.metrics.streamsActive.Set(int64(s.live))
	s.gcLocked(time.Now())
	stampLocked(j, stream.Progress{})
	s.publishTraceLocked(j)
	s.mu.Unlock()
	if closed {
		// Shutdown ran while the session was journaled: leave it live in
		// the journal, for the next life, like the sessions Shutdown saw.
		j.sess.Release()
	}
	return s.viewOf(j), nil
}

// sessionOptions wires a session to its record: the service's journal and
// limits, the shared ingest metrics, the record's logger, the tenant's
// byte quota, and a failure that ends the record.
func (s *Service) sessionOptions(j *record, tn *tenant.Tenant) stream.Options {
	return stream.Options{
		Journal:         s.cfg.Journal,
		CheckpointEvery: s.cfg.CheckpointEvery,
		MaxBytes:        s.cfg.StreamMaxBytes,
		MaxEvents:       s.cfg.MaxEvents,
		Metrics:         s.ingest,
		Logger:          s.streamLogger(j),
		Charge:          tn.ReserveBytes,
		Fail:            func(err error) { s.failStream(j, err) },
	}
}

// streamRecord returns the identified session's record.
func (s *Service) streamRecord(id string) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.records[id]
	return j, ok && j.sess != nil
}

// viewOf snapshots a session: its record under s.mu, then its progress
// outside it, so a view never waits on a chunk being fed while it holds
// the service's lock.
func (s *Service) viewOf(j *record) stream.View {
	s.mu.Lock()
	v := j.streamViewLocked()
	s.mu.Unlock()
	p := j.sess.Progress()
	v.Events, v.Bytes, v.Findings, v.ResumedFrom = p.Events, p.Bytes, p.Findings, p.ResumedFrom
	return v
}

// Stream returns a snapshot of the identified session.
func (s *Service) Stream(id string) (stream.View, bool) {
	j, ok := s.streamRecord(id)
	if !ok {
		return stream.View{}, false
	}
	return s.viewOf(j), true
}

// Streams returns snapshots of every session in admission order.
func (s *Service) Streams() []stream.View {
	s.mu.Lock()
	var sessions []*record
	for _, id := range s.order {
		if j := s.records[id]; j.sess != nil {
			sessions = append(sessions, j)
		}
	}
	s.mu.Unlock()
	out := make([]stream.View, len(sessions))
	for i, j := range sessions {
		out[i] = s.viewOf(j)
	}
	return out
}

// Session returns the identified session's ingest, for feeding it in
// process as the events endpoint does.
func (s *Service) Session(id string) (*stream.Session, bool) {
	j, ok := s.streamRecord(id)
	if !ok {
		return nil, false
	}
	return j.sess, true
}

// CloseStream closes the identified session cleanly: its analyzer is
// summarized and the record finishes done, with the summary journaled. A
// summary that panics is confined to the session, which finishes failed
// with the panic as its error. A session already ended answers
// stream.ErrTerminal with its settled view, and one with an ingest request
// attached stream.ErrBusy.
func (s *Service) CloseStream(id string) (stream.View, error) {
	j, ok := s.streamRecord(id)
	if !ok {
		return stream.View{}, errNoStream
	}
	sum, p, err := j.sess.Stop(stream.StatusDone)
	switch {
	case errors.Is(err, stream.ErrTerminal):
		return s.viewOf(j), err
	case errors.Is(err, tools.ErrPanicked):
		s.finish(j, outcome{err: err.Error(), events: p.Events, bytes: p.Bytes}, stopSpans(j, p, nil))
		s.streamLogger(j).Error("analyzer panicked", "phase", "close", "err", err)
		return s.viewOf(j), nil
	case err != nil:
		return stream.View{}, err
	}
	result, _ := json.Marshal(sum)
	s.finish(j, outcome{summary: sum, result: result, events: p.Events, bytes: p.Bytes}, stopSpans(j, p, sum))
	s.streamLogger(j).Info("session completed", "phase", "close",
		"events", p.Events, "bytes", p.Bytes, "issues", sum.Issues)
	return s.viewOf(j), nil
}

// AbortStream ends the identified session at its client's request
// (DELETE) and removes its journal record: an aborted stream is not worth
// recovering. It reports whether this call ended the session.
func (s *Service) AbortStream(id string) bool {
	j, ok := s.streamRecord(id)
	if !ok || !s.endStream(j, stream.StatusFailed, "aborted by client") {
		return false
	}
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Remove(j.id); err != nil {
			s.streamLogger(j).Error("journal stream remove failed", "phase", "abort", "err", err)
		}
	}
	s.streamLogger(j).Info("session aborted", "phase", "abort")
	return true
}

// EvictStream ends the identified live session server-side, recording the
// reason ("idle", "slow", "budget") in the eviction metrics and the
// journal. It reports whether this call ended the session.
func (s *Service) EvictStream(id, reason string) bool {
	j, ok := s.streamRecord(id)
	if !ok || !s.endStream(j, stream.StatusEvicted, "evicted: "+reason) {
		return false
	}
	s.metrics.streamsEvicted.With(reason).Inc()
	s.streamLogger(j).Warn("session evicted", "phase", "evict", "reason", reason)
	return true
}

// failStream ends a session whose ingest failed: corrupt input, a limit,
// an analyzer panic or a spool write. Corruption is counted by the call
// that ended the session, so once per session.
func (s *Service) failStream(j *record, err error) {
	if !s.endStream(j, stream.StatusFailed, err.Error()) {
		return
	}
	var ce *trace.CorruptionError
	if errors.As(err, &ce) {
		s.metrics.streamCorruption.Inc()
	}
	s.streamLogger(j).Warn("session failed", "phase", "ingest", "err", err)
}

// endStream stops a live session's ingest as failed or evicted and
// finishes its record, reporting whether this call ended it.
func (s *Service) endStream(j *record, status stream.Status, errMsg string) bool {
	_, p, err := j.sess.Stop(status)
	if err != nil {
		return false
	}
	s.finish(j, outcome{err: errMsg, evicted: status == stream.StatusEvicted, events: p.Events, bytes: p.Bytes}, stopSpans(j, p, nil))
	return true
}

// stopSpans is finish's annotate for a session: it closes the ingest span
// of a request still attached and stamps the final progress, and a done
// session's issue count, on the root.
func stopSpans(j *record, p stream.Progress, sum *tools.Summary) func(*telemetry.Span) {
	return func(root *telemetry.Span) {
		if j.ingest != nil {
			j.ingest.EndAt(time.Time{})
			j.ingest = nil
		}
		stampLocked(j, p)
		if sum != nil {
			root.SetCount("issues", int64(sum.Issues))
		}
	}
}

// stampLocked records a session's progress on its root span. The caller
// holds s.mu or owns the unpublished record.
func stampLocked(j *record, p stream.Progress) {
	if j.span == nil {
		return
	}
	j.span.SetCount("events", int64(p.Events))
	j.span.SetCount("bytes", p.Bytes)
	if p.Checkpoint > 0 {
		j.span.SetCount("checkpoint_event", int64(p.Checkpoint))
	}
}

// startIngest looks up the identified session, attaches an ingest request
// to it and opens the request's "ingest" span. The session's lock is
// never taken under s.mu, which a chunk being fed may hold for a while.
func (s *Service) startIngest(id string) (*record, error) {
	j, ok := s.streamRecord(id)
	if !ok {
		return nil, errNoStream
	}
	if err := j.sess.StartIngest(); err != nil {
		return nil, err
	}
	if j.span != nil {
		s.mu.Lock()
		if len(j.span.Children) < maxIngestSpans {
			j.ingest = j.span.StartChild("ingest", time.Time{})
		}
		s.mu.Unlock()
	}
	return j, nil
}

// endIngest detaches the request startIngest attached and closes its span
// with the session's cumulative position, so consecutive ingest spans read
// as a progress series. An untraced session takes no lock here.
func (s *Service) endIngest(j *record) {
	p := j.sess.EndIngest()
	if j.span == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.ingest != nil {
		j.ingest.SetCount("events", int64(p.Events))
		j.ingest.SetCount("bytes", p.Bytes)
		j.ingest.EndAt(time.Time{})
		j.ingest = nil
	}
	if !j.terminal() {
		stampLocked(j, p)
		s.publishTraceLocked(j)
	}
}

// evictIdle evicts the live sessions idle past StreamIdleTimeout. Sessions
// with an ingest request attached are never idle — their liveness is the
// HTTP read deadline's problem.
func (s *Service) evictIdle(now time.Time) {
	s.mu.Lock()
	var live []*record
	for _, id := range s.order {
		if j := s.records[id]; j.status == statusLive {
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	for _, j := range live {
		if j.sess.IdleSince(now) > s.cfg.StreamIdleTimeout {
			s.EvictStream(j.id, "idle")
		}
	}
}

// resumeStream rebuilds a live session from its journal record: the
// analyzer restored from the freshest checkpoint (a failed restore falls
// back to a clean analyzer and a full re-feed), the trace rejoined under
// its journaled identity with a "restore" span for the resume, the spool
// re-fed and reopened, and the tenant's stream slot and spooled bytes
// adopted without enforcement — an admitted session is never dropped at
// restart, even over a shrunken quota. A session that cannot be rebuilt
// comes back as failed history; a torn spool tail is truncated off, like a
// torn meta record. It reports whether the session is live again. Runs
// outside s.mu, before j is published.
func (s *Service) resumeStream(j *record, rj journal.RecoveredJob) bool {
	s.restoreTraceLocked(j, rj.Traceparent)
	tn := s.tenants.Get(j.tenant)
	j.tenant = tn.Name()
	sess, restoreErr, err := stream.New(j.id, j.tool, tools.Options{Stats: s.cfg.AnalyzerStats}, rj.Checkpoint, s.sessionOptions(j, tn))
	if err != nil {
		s.recoverFailed(j, err.Error())
		return false
	}
	j.sess = sess
	start := sess.Progress().ResumedFrom
	if restoreErr != nil {
		s.metrics.checkpointErrors.Inc()
		s.streamLogger(j).Error("stream checkpoint restore failed; re-feeding from scratch",
			"phase", "recovery", "err", restoreErr)
	} else if start > 0 {
		s.streamLogger(j).Info("resuming stream from checkpoint", "phase", "recovery", "resume_event", start)
	}
	// The recovery work is itself a span on the resumed trace: where the
	// checkpoint put the session and how far the spooled suffix carried it.
	var rs *telemetry.Span
	if j.span != nil {
		rs = j.span.StartChild("restore", time.Time{})
		rs.SetCount("resume_event", int64(start))
	}
	err = j.sess.Refeed(rj.Bytes)
	p := j.sess.Progress()
	if rs != nil {
		if err != nil {
			rs.SetError(err.Error())
		} else {
			rs.SetCount("refed_event", int64(p.Events))
		}
		rs.EndAt(time.Time{})
	}
	if err != nil {
		var ce *trace.CorruptionError
		if errors.As(err, &ce) {
			s.metrics.streamCorruption.Inc()
		}
		j.sess.Stop(stream.StatusFailed)
		stampLocked(j, p)
		s.recoverFailed(j, fmt.Sprintf("recovery: %v", err))
		return false
	}
	tn.AdoptStream(p.Bytes)
	j.quotaHeld = true
	stampLocked(j, p)
	s.publishTraceLocked(j)
	return true
}
