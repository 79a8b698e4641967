// The job lifecycle both runners share. A pool worker's own run (runJob)
// and a remote worker's lease (the dist.Backend methods in fleet.go) move a
// job through the same three steps, so a job finished remotely is
// indistinguishable — journal marks, metrics, retention — from one finished
// here.
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

// terminal reports whether the job reached done or failed. The caller holds
// s.mu.
func (j *job) terminal() bool { return j.status == StatusDone || j.status == StatusFailed }

// startRunning moves j to running and journals the transition, for a pool
// worker about to replay it and for a lease grant alike. A job run again
// after its lease expired is already running and keeps its first start
// time, so its queue wait is observed once. It returns false when j is
// already terminal, and otherwise when the journal mark began and ended
// (zero without a journal), which runJob records as the "mark" span.
func (s *Service) startRunning(j *job) (markStart, markEnd time.Time, ok bool) {
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
		s.mark(j, journal.StatusRunning, "", nil)
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
func (s *Service) storeCheckpoint(j *job, ck *trace.Checkpoint) bool {
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

// outcome is how a job ended, as finish records it.
type outcome struct {
	// err is the failure message; empty means the job is done.
	err string
	// summary holds the findings of a done job, and result the same summary
	// as JSON, journaled with the done mark.
	summary *tools.Summary
	result  json.RawMessage
	// wall is the replay wall time the job view reports.
	wall time.Duration
}

// finish records j's terminal state exactly once, whichever way the job
// ended: a pool worker's replay, a remote worker's result, or a shed. It
// releases the trace and checkpoint, closes the span tree, returns the
// tenant's quota, runs retention, counts the outcome, journals the terminal
// mark and removes the spooled checkpoint. annotate, when non-nil, adds the
// runner's own child spans to the job's span tree before the root closes;
// it runs under s.mu. A job already terminal is left alone and reported as
// an error: a second completion lost the race.
func (s *Service) finish(j *job, o outcome, annotate func(root *telemetry.Span)) error {
	s.mu.Lock()
	if j.terminal() {
		s.mu.Unlock()
		return fmt.Errorf("service: job %s already terminal (%s)", j.id, j.status)
	}
	j.finished = time.Now()
	j.wall = o.wall
	j.tr = nil   // release the trace's memory; only the summary is kept
	j.ckpt = nil // terminal: the checkpoint (and its spool file) are obsolete
	if o.err != "" {
		j.status = StatusFailed
		j.errMsg = o.err
	} else {
		j.status = StatusDone
		j.result = o.summary
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
	s.releaseQuotaLocked(j)
	s.publishTraceLocked(j)
	s.metrics.jobSeconds.ObserveDuration(j.finished.Sub(j.submitted))
	s.gcLocked(j.finished)
	s.mu.Unlock()

	if o.err != "" {
		s.metrics.jobsFailed.Inc()
		s.mark(j, journal.StatusFailed, o.err, nil)
	} else {
		s.metrics.jobsCompleted.Inc()
		if o.summary != nil {
			s.metrics.recordJobStats(o.summary.Stats)
		}
		s.mark(j, journal.StatusDone, "", o.result)
	}
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.RemoveCheckpoint(j.id); err != nil {
			s.metrics.journalError("remove")
			s.jobLogger(j).Error("checkpoint remove failed", "phase", "gc", "err", err)
		}
	}
	return nil
}
