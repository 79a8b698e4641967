package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"

	"repro/internal/telemetry"
)

// spanRecord is one span of spans.json: a client operation, a request the
// benchmark made within it, or a node of the daemon's job tree hung under
// the operation that caused it. Times are nanoseconds since the run began.
type spanRecord struct {
	ID     int              `json:"id"`
	Name   string           `json:"name"`
	OpID   int              `json:"op_id"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// spanLog builds the span records of traced operations in memory; they are
// written once, when the run ends.
type spanLog struct {
	epoch time.Time
	spans []spanRecord
	ops   int
}

func (l *spanLog) add(name string, op, parent int, start, end time.Time, counts map[string]int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, spanRecord{
		ID: id, Name: name, OpID: op, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Counts: counts,
	})
	return id
}

// addOp records one operation: its own span, a child per request, and the
// daemon's job tree under the operation span.
func (l *spanLog) addOp(kind string, r *opResult) {
	l.ops++
	op := l.ops
	id := l.add(kind, op, 0, r.start, r.end, map[string]int64{"events": int64(r.in.events())})
	for _, c := range r.calls {
		var counts map[string]int64
		if c.n > 0 {
			counts = map[string]int64{"requests": int64(c.n)}
		}
		l.add(c.name, op, id, c.start, c.end, counts)
	}
	if r.job != nil {
		l.addTree(op, id, r.job)
	}
}

func (l *spanLog) addTree(op, parent int, s *telemetry.Span) {
	id := l.add(s.Name, op, parent, s.Start, s.Start.Add(s.Duration()), s.Counts)
	for _, c := range s.Children {
		l.addTree(op, id, c)
	}
}

// write stores the records as one JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover, keyed by span ID.
func selfTimes(spans []spanRecord) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = selfNanos(s.Start, s.End, kids[s.ID])
	}
	return out
}

// selfNanos is end-start minus the union of the child intervals clipped to
// [start, end]: overlapping children are not counted twice.
func selfNanos(start, end int64, children [][2]int64) int64 {
	iv := slices.Clone(children)
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, at := int64(0), start
	for _, c := range iv {
		lo, hi := max(c[0], at), min(c[1], end)
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return end - start - covered
}

// jobSelfNanos is the part of a daemon job span no child span covers.
func jobSelfNanos(j *telemetry.Span) int64 {
	var kids [][2]int64
	for _, c := range j.Children {
		kids = append(kids, [2]int64{c.Start.UnixNano(), c.Start.UnixNano() + c.DurationNanos})
	}
	return selfNanos(j.Start.UnixNano(), j.Start.UnixNano()+j.DurationNanos, kids)
}
