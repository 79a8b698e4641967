// The record lifecycle every runner shares. A pool worker's own run
// (runJob) and a remote worker's lease (the dist.Backend methods in
// fleet.go) move a job through the same three steps, so a job finished
// remotely is indistinguishable — journal marks, metrics, retention — from
// one finished here; and a stream session ends through the same finish.
package service

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
)

// terminal reports whether the record reached done, failed or (a session)
// evicted. The caller holds s.mu.
func (j *record) terminal() bool {
	return j.status == StatusDone || j.status == StatusFailed || j.status == statusEvicted
}

// startRunning moves j to running and journals the transition, for a pool
// worker about to replay it and for a lease grant alike. A job run again
// after its lease expired is already running and keeps its first start
// time, so its queue wait is observed once. It returns false when j is
// already terminal, and otherwise when the journal mark began and ended
// (zero without a journal), which runJob records as the "mark" span.
func (s *Service) startRunning(j *record) (markStart, markEnd time.Time, ok bool) {
	s.mu.Lock()
	if j.terminal() {
		s.mu.Unlock()
		return time.Time{}, time.Time{}, false
	}
	if j.status != StatusRunning {
		j.status = StatusRunning
		j.started = time.Now()
		if qs := j.span.Child("queue"); qs != nil {
			qs.EndAt(j.started)
		}
		if !j.enqueued.IsZero() {
			s.metrics.queueWait.ObserveDuration(j.started.Sub(j.enqueued))
		}
	}
	hook := s.testHookRunning
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		markStart = time.Now()
		s.mark(j, journal.StatusRunning, outcome{})
		markEnd = time.Now()
	}
	if hook != nil {
		hook(j.id)
	}
	return markStart, markEnd, true
}

// storeCheckpoint keeps ck as j's freshest checkpoint and spools it through
// the journal, for a pool worker's replay and a remote worker's stream
// alike. It is monotone: a checkpoint older than the one held (an abandoned
// attempt racing a watchdog retry, a delayed post) is dropped. A spool
// failure is counted and logged, never fatal: the in-memory copy still
// serves a watchdog retry or a reschedule within this life. It reports
// whether the checkpoint is durable (spooled, or kept with no journal
// configured).
func (s *Service) storeCheckpoint(j *record, ck *trace.Checkpoint) bool {
	s.mu.Lock()
	if j.terminal() || (j.ckpt != nil && ck.NextEvent < j.ckpt.NextEvent) {
		s.mu.Unlock()
		return false
	}
	j.ckpt = ck
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.WriteCheckpoint(ck); err != nil {
			s.metrics.checkpointErrors.Inc()
			s.metrics.journalError("checkpoint")
			s.jobLogger(j).Error("checkpoint write failed", "phase", "checkpoint", "err", err)
			return false
		}
	}
	s.metrics.checkpointsWritten.Inc()
	s.metrics.checkpointBytes.Observe(float64(len(ck.State)))
	return true
}

// outcome is how a record ended, as finish records it.
type outcome struct {
	// err is the failure message; empty means the record is done.
	err string
	// evicted ends a session the server ended (idle, slow, budget) as
	// evicted instead of failed.
	evicted bool
	// summary holds the findings of a done record, and result the same
	// summary as JSON, journaled with the done mark.
	summary *tools.Summary
	result  json.RawMessage
	// wall is the replay wall time the job view reports.
	wall time.Duration
	// events and bytes are what a session applied and accepted, journaled
	// with its terminal mark; bytes is also the byte quota it releases.
	events uint64
	bytes  int64
}

// finish records j's terminal state exactly once, whichever way it ended: a
// pool worker's replay, a remote worker's result, a shed, or a session's
// close, failure or eviction. It releases the trace and checkpoint, closes
// the span tree, returns the tenant's quota, runs retention, counts the
// outcome, journals the terminal mark and removes the spooled checkpoint.
// annotate, when non-nil, adds the runner's own child spans to the span
// tree before the root closes; it runs under s.mu. A record already
// terminal is left alone and reported as an error: a second completion
// lost the race.
func (s *Service) finish(j *record, o outcome, annotate func(root *telemetry.Span)) error {
	s.mu.Lock()
	if j.terminal() {
		s.mu.Unlock()
		return fmt.Errorf("service: job %s already terminal (%s)", j.id, j.status)
	}
	j.finished = time.Now()
	j.wall = o.wall
	j.tr = nil   // release the trace's memory; only the summary is kept
	j.ckpt = nil // terminal: the checkpoint (and its spool file) are obsolete
	mark := journal.StatusDone
	switch {
	case o.evicted:
		j.status, j.errMsg, mark = statusEvicted, o.err, journal.StatusEvicted
	case o.err != "":
		j.status, j.errMsg, mark = StatusFailed, o.err, journal.StatusFailed
	default:
		j.status, j.result = StatusDone, o.summary
	}
	if j.span != nil {
		if annotate != nil {
			annotate(j.span)
		}
		if o.err != "" {
			j.span.SetError(o.err)
		}
		j.span.EndAt(j.finished)
	}
	if j.sess != nil {
		j.bytes = o.bytes
		s.live--
		s.metrics.streamsActive.Set(int64(s.live))
	} else {
		s.metrics.jobSeconds.ObserveDuration(j.finished.Sub(j.submitted))
	}
	s.releaseQuotaLocked(j)
	s.publishTraceLocked(j)
	s.finished = append(s.finished, j)
	s.mu.Unlock()

	switch {
	case j.sess != nil && j.status == StatusDone:
		s.metrics.streamsCompleted.Inc()
	case j.sess != nil && j.status == StatusFailed:
		s.metrics.streamsFailed.Inc()
	case j.status == StatusDone:
		s.metrics.jobsCompleted.Inc()
		if o.summary != nil {
			s.metrics.recordJobStats(o.summary.Stats)
		}
	case j.status == StatusFailed:
		s.metrics.jobsFailed.Inc()
	}
	s.mark(j, mark, o)
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.RemoveCheckpoint(j.id); err != nil {
			s.metrics.journalError("remove")
			s.jobLogger(j).Error("checkpoint remove failed", "phase", "gc", "err", err)
		}
	}
	s.mu.Lock()
	j.settled = true
	s.gcLocked(j.finished)
	s.mu.Unlock()
	return nil
}
