package telemetry

import (
	"math/rand/v2"
	"sync"
	"time"
)

// TraceStore is the daemon's bounded in-memory trace database: a ring of
// the most recent trace trees, keyed by trace ID and served at
// GET /v1/traces. Writers publish immutable snapshots (Span.Clone taken
// under the owner's lock), so reads never race a tree still being built.
//
// Two mechanisms bound it:
//
//   - Head-based sampling: Admit decides once, at trace creation, whether a
//     trace is recorded; the verdict propagates in the context's sampled
//     flag so every process agrees. Unsampled traces cost one rand call.
//   - A capacity ring: past Capacity stored traces, publishing a new trace
//     evicts the oldest. Jobs evicted by the service's retention GC drop
//     their traces explicitly through Remove, so trace retention never
//     outlives job retention.
//
// Every method is nil-safe: a nil *TraceStore is "tracing disabled" and
// each call is a pointer check, which is what keeps the disabled hot path
// within noise of not having tracing at all.
type TraceStore struct {
	capacity int
	sample   float64

	mu      sync.Mutex
	entries map[string]*Span
	order   []string // insertion order; index 0 is evicted first
	// spans is the running total of spans across entries, kept as trees
	// come and go so the span gauge never walks the store.
	spans int

	stored     *Counter
	evicted    *Counter
	sampledOut *Counter
	active     *Gauge
	spansGauge *Gauge
}

// DefaultTraceCapacity is the ring size when the configuration does not
// choose one.
const DefaultTraceCapacity = 512

// NewTraceStore builds a store holding up to capacity traces (<=0 takes
// DefaultTraceCapacity) that samples the given fraction of new traces
// (<=0 or >=1 records everything). With reg non-nil the store registers its
// arbalestd_trace_* metric families there.
func NewTraceStore(capacity int, sample float64, reg *Registry) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if sample <= 0 || sample > 1 {
		sample = 1
	}
	ts := &TraceStore{
		capacity: capacity,
		sample:   sample,
		entries:  make(map[string]*Span),
	}
	if reg != nil {
		ts.stored = reg.Counter("arbalestd_traces_stored_total",
			"Distributed traces admitted into the in-memory trace store.")
		ts.evicted = reg.Counter("arbalestd_traces_evicted_total",
			"Traces evicted from the store by the capacity ring or retention GC.")
		ts.sampledOut = reg.Counter("arbalestd_traces_sampled_out_total",
			"Traces dropped by head-based sampling at admission.")
		ts.active = reg.Gauge("arbalestd_traces_active",
			"Traces currently held in the trace store.")
		ts.spansGauge = reg.Gauge("arbalestd_trace_spans_active",
			"Total spans across all traces currently held in the trace store.")
	}
	return ts
}

// Capacity returns the ring bound (0 for a nil store).
func (ts *TraceStore) Capacity() int {
	if ts == nil {
		return 0
	}
	return ts.capacity
}

// Admit is the head-based sampling decision for a new trace. It is made
// exactly once per trace and propagated in the trace context.
func (ts *TraceStore) Admit() bool {
	if ts == nil {
		return false
	}
	if ts.sample >= 1 || rand.Float64() < ts.sample {
		return true
	}
	if ts.sampledOut != nil {
		ts.sampledOut.Inc()
	}
	return false
}

// Put publishes a snapshot of the trace's root span under id, inserting or
// replacing. The caller must pass a tree it will not mutate afterwards
// (Span.Clone). Inserting past capacity evicts the oldest trace.
func (ts *TraceStore) Put(id string, root *Span) {
	if ts == nil || id == "" || root == nil {
		return
	}
	ts.mu.Lock()
	if old, ok := ts.entries[id]; ok {
		ts.spans -= old.SpanCount()
	} else {
		ts.order = append(ts.order, id)
		if ts.stored != nil {
			ts.stored.Inc()
		}
		for len(ts.order) > ts.capacity {
			oldest := ts.order[0]
			ts.order = ts.order[1:]
			ts.spans -= ts.entries[oldest].SpanCount()
			delete(ts.entries, oldest)
			if ts.evicted != nil {
				ts.evicted.Inc()
			}
		}
	}
	ts.entries[id] = root
	ts.spans += root.SpanCount()
	ts.updateGaugesLocked()
	ts.mu.Unlock()
}

// Get returns the stored snapshot for id, nil when unknown. The returned
// tree is immutable by convention; callers must not modify it.
func (ts *TraceStore) Get(id string) *Span {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.entries[id]
}

// Remove drops the trace (retention GC tie-in). Unknown ids are no-ops.
func (ts *TraceStore) Remove(id string) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	if old, ok := ts.entries[id]; ok {
		ts.spans -= old.SpanCount()
		delete(ts.entries, id)
		for i, v := range ts.order {
			if v == id {
				ts.order = append(ts.order[:i], ts.order[i+1:]...)
				break
			}
		}
		if ts.evicted != nil {
			ts.evicted.Inc()
		}
		ts.updateGaugesLocked()
	}
	ts.mu.Unlock()
}

// Len returns the number of stored traces.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.entries)
}

// SpanCount returns the total spans across stored traces — what the chaos
// suite bounds to prove the store cannot leak while workers crash. It
// walks every stored tree, independently of the running total behind the
// span gauge.
func (ts *TraceStore) SpanCount() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for _, root := range ts.entries {
		n += root.SpanCount()
	}
	return n
}

// TraceSummary is one trace's row in the GET /v1/traces listing.
type TraceSummary struct {
	TraceID       string    `json:"traceId"`
	Name          string    `json:"name"`
	Start         time.Time `json:"start"`
	DurationNanos int64     `json:"durationNanos"`
	Status        string    `json:"status,omitempty"`
	Spans         int       `json:"spans"`
}

// List summarizes every stored trace, oldest first.
func (ts *TraceStore) List() []TraceSummary {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceSummary, 0, len(ts.order))
	for _, id := range ts.order {
		root := ts.entries[id]
		out = append(out, TraceSummary{
			TraceID:       id,
			Name:          root.Name,
			Start:         root.Start,
			DurationNanos: root.DurationNanos,
			Status:        root.Status,
			Spans:         root.SpanCount(),
		})
	}
	return out
}

// Roots returns every stored root span, oldest first (OTLP bulk export).
func (ts *TraceStore) Roots() []*Span {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*Span, 0, len(ts.order))
	for _, id := range ts.order {
		out = append(out, ts.entries[id])
	}
	return out
}

// DurationsByName collects the recorded durations of every closed stored
// root span with the given name — the span-derived latency source behind
// /v1/fleet/status's p50/p99 job latencies.
func (ts *TraceStore) DurationsByName(name string) []int64 {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var out []int64
	for _, root := range ts.entries {
		if root.Name == name && root.DurationNanos > 0 {
			out = append(out, root.DurationNanos)
		}
	}
	return out
}

// updateGaugesLocked refreshes the active-trace and active-span gauges in
// constant time. Callers hold ts.mu.
func (ts *TraceStore) updateGaugesLocked() {
	if ts.active == nil {
		return
	}
	ts.active.Set(int64(len(ts.entries)))
	ts.spansGauge.Set(int64(ts.spans))
}
