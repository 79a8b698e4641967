// The span methods of dist.Backend: the service side of fleet-wide span
// shipping. The coordinator opens a "lease" span on the job's trace for
// every grant, workers ship span-tree snapshots back piggybacked on
// heartbeats and results, and the methods here merge them — under
// Service.mu, into the same span tree the single-process path builds — so
// a job analyzed across three processes still reads as one trace at
// GET /v1/traces/{id}.
//
// Everything here is observability-only by construction: merged spans touch
// j.span and the trace store, never job status, checkpoints, results, or
// journal marks. The coordinator also fences before merging, so a zombie
// worker's spans are dropped with its writes (DESIGN.md §5.9).
package service

import (
	"time"

	"repro/internal/telemetry"
)

// Merge bounds: a worker's legitimate span tree is a "worker" root with one
// child per phase, so anything near these caps is a bug or an abusive
// client — the caps keep the trace store's memory bounded either way.
const (
	// maxLeaseChildren caps distinct merged subtrees under one lease span.
	maxLeaseChildren = 64
	// maxMergedSpans caps one shipped subtree's span count.
	maxMergedSpans = 1024
	// maxFencedSpans caps "fenced" annotation spans per job, so a zombie
	// hammering the coordinator cannot grow the trace without bound.
	maxFencedSpans = 16
)

// publishTraceLocked snapshots the job's span tree into the trace store.
// The caller holds s.mu; the store receives an immutable Clone, so readers
// never race the tree still being built.
func (s *Service) publishTraceLocked(j *record) {
	if s.traces == nil || j == nil || j.span == nil || j.span.TraceID == "" {
		return
	}
	s.traces.Put(j.span.TraceID, j.span.Clone())
}

// StartLeaseSpan opens a "lease" span for the grant (worker, token) on the
// job's trace and returns the traceparent the worker parents its spans
// under. Untraced jobs return "" and the fleet protocol carries no trace
// context for them at all.
func (s *Service) StartLeaseSpan(jobID, worker string, token uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(jobID)
	if !ok || j.span == nil || j.span.TraceID == "" {
		return ""
	}
	ls := j.span.StartChild("lease", time.Time{})
	ls.SetAttr("worker", worker)
	ls.SetCount("token", int64(token))
	if j.leaseSpans == nil {
		j.leaseSpans = make(map[uint64]*telemetry.Span)
	}
	j.leaseSpans[token] = ls
	s.publishTraceLocked(j)
	return telemetry.TraceContext{TraceID: ls.TraceID, SpanID: ls.SpanID, Sampled: true}.Traceparent()
}

// MergeLeaseSpans merges a worker's span-tree snapshots under the lease
// span for (jobID, token). Shipments are cumulative snapshots, not deltas:
// a subtree re-shipped with the same root span ID replaces its previous
// snapshot, so the merge is idempotent across heartbeats.
func (s *Service) MergeLeaseSpans(jobID string, token uint64, spans []*telemetry.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(jobID)
	if !ok || j.leaseSpans == nil {
		return
	}
	ls := j.leaseSpans[token]
	if ls == nil {
		return
	}
	merged := false
	for _, sp := range spans {
		// Reject snapshots that don't belong to this trace or blow the size
		// bounds; span payloads come off the network and must not be able to
		// grow the store arbitrarily.
		if sp == nil || sp.SpanID == "" || sp.TraceID != ls.TraceID || sp.SpanCount() > maxMergedSpans {
			continue
		}
		replaced := false
		for i, c := range ls.Children {
			if c.SpanID == sp.SpanID {
				ls.Children[i] = sp
				replaced = true
				break
			}
		}
		if !replaced && len(ls.Children) < maxLeaseChildren {
			ls.Children = append(ls.Children, sp)
		}
		merged = true
	}
	if merged {
		s.publishTraceLocked(j)
	}
}

// CloseLeaseSpan ends the lease span for (jobID, token): with errMsg=="" on
// an accepted result, otherwise failed (lease expiry, failed result). The
// close is idempotent — only the first close records status and duration.
func (s *Service) CloseLeaseSpan(jobID string, token uint64, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(jobID)
	if !ok || j.leaseSpans == nil {
		return
	}
	ls := j.leaseSpans[token]
	if ls == nil || ls.Status != "" {
		return
	}
	if errMsg != "" {
		ls.SetError(errMsg)
	}
	ls.EndAt(time.Time{})
	s.publishTraceLocked(j)
}

// RecordFenced attaches an error span for a write the fencing token
// rejected, so a zombie's rejected heartbeat or result is visible in the
// job's trace next to the retry that superseded it. Works after the job is
// terminal too — that is exactly when zombie results arrive.
func (s *Service) RecordFenced(jobID, worker, op string, token uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobLocked(jobID)
	if !ok || j.span == nil || j.span.TraceID == "" {
		return
	}
	fenced := 0
	for _, c := range j.span.Children {
		if c.Name == "fenced" {
			fenced++
		}
	}
	if fenced >= maxFencedSpans {
		return
	}
	fs := j.span.StartChild("fenced", time.Time{})
	fs.SetAttr("worker", worker)
	fs.SetAttr("op", op)
	fs.SetCount("token", int64(token))
	fs.SetError("write rejected: stale fencing token")
	fs.EndAt(time.Time{})
	s.publishTraceLocked(j)
}
