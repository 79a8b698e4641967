// Fleet backend: the dist.Backend seam the coordinator drives.
//
// A coordinator attached with AttachCoordinator is offered every job the
// pool dequeues (Coordinator.Handoff). The methods here give a lease the
// same lifecycle steps a pool worker's own run takes — the running
// transition, checkpoint custody, the terminal bookkeeping (lifecycle.go) —
// plus Requeue, which puts the job of a lease that ended without a result
// back at the head of its tenant's line.
package service

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/dist"
	"repro/internal/tools"
	"repro/internal/trace"
)

// lookup returns the identified job.
func (s *Service) lookup(id string) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(id)
	return j, ok
}

// MarkJobRunning transitions the job to running for a remote lease holder,
// journaling the transition. False means the job is gone, already terminal,
// or past its client deadline — then shed, as dequeue sheds it — and the
// lease must not be granted.
func (s *Service) MarkJobRunning(id, worker string) bool {
	j, ok := s.lookup(id)
	if !ok || s.shedIfExpired(j, time.Now()) {
		return false
	}
	_, _, running := s.startRunning(j)
	return running
}

// StoreRemoteCheckpoint ingests a worker's epoch-barrier checkpoint:
// monotone per job (stale ones are dropped silently — the analysis moved
// on) and spooled through the journal so a coordinator restart resumes
// remote jobs from it.
func (s *Service) StoreRemoteCheckpoint(ck *trace.Checkpoint) error {
	j, ok := s.lookup(ck.JobID)
	if !ok {
		return dist.ErrNoJob
	}
	s.storeCheckpoint(j, ck)
	return nil
}

// CompleteRemote records a remote job's terminal state exactly once. A
// second completion (a zombie's result racing the rescheduled run) fails
// with an error instead of overwriting.
func (s *Service) CompleteRemote(id, errMsg string, result json.RawMessage) error {
	s.mu.Lock()
	j, ok := s.jobLocked(id)
	var started time.Time
	if ok {
		started = j.started
	}
	s.mu.Unlock()
	if !ok {
		return dist.ErrNoJob
	}
	o := outcome{err: errMsg}
	if !started.IsZero() {
		o.wall = time.Since(started)
	}
	if errMsg == "" {
		o.result = result
		var sum tools.Summary
		if err := json.Unmarshal(result, &sum); err == nil {
			o.summary = &sum
		} else if len(result) > 0 {
			s.jobLogger(j).Error("remote result unmarshal failed", "phase", "fleet", "err", err)
		}
	}
	if err := s.finish(j, o, nil); err != nil {
		return err
	}
	if errMsg == "" {
		s.metrics.eventsReplayed.Add(uint64(j.events))
	}
	return nil
}

// Requeue puts a job whose lease ended without a result back at the head of
// its tenant's line, where the pool offers it to the fleet again or runs
// it. The job keeps its running status and start time; only its queue
// sojourn restarts. Unknown and terminal jobs are ignored.
func (s *Service) Requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(id)
	if !ok || j.terminal() {
		return
	}
	j.enqueued = time.Now()
	s.pushLocked(j, s.tenants.Get(j.tenant).Weight(), true)
}

// FreshCheckpoint returns the job's newest checkpoint, nil when it must
// replay from scratch.
func (s *Service) FreshCheckpoint(id string) *trace.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobLocked(id); ok {
		return j.ckpt
	}
	return nil
}

// TraceFramed returns the job's trace in the CRC-framed wire format for a
// worker to fetch: the upload's own bytes when the trace kept them, an
// encoding of the trace only when it did not.
func (s *Service) TraceFramed(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobLocked(id)
	var tr *trace.Trace
	if ok {
		tr = j.tr
	}
	s.mu.Unlock()
	if !ok || tr == nil {
		return nil, dist.ErrNoJob
	}
	if data := tr.Framed(); data != nil {
		return data, nil
	}
	var buf bytes.Buffer
	if err := tr.SaveFramed(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
