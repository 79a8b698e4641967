package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		tc := NewTraceContext()
		tc.Sampled = sampled
		got, ok := ParseTraceparent(tc.Traceparent())
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected own output", tc.Traceparent())
		}
		if got != tc {
			t.Errorf("round trip: got %+v, want %+v", got, tc)
		}
	}
	// The canonical W3C example parses.
	tc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok || tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.SpanID != "00f067aa0ba902b7" || !tc.Sampled {
		t.Errorf("W3C example parsed as %+v, %v", tc, ok)
	}
	// Uppercase hex is normalized down.
	if tc, ok := ParseTraceparent("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-00"); !ok || tc.Sampled || tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("uppercase form parsed as %+v, %v", tc, ok)
	}
}

func TestTraceparentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01",    // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",   // bad flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // trailing part
	} {
		if tc, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", bad, tc)
		}
	}
}

func TestInjectExtract(t *testing.T) {
	h := make(http.Header)
	if _, ok := ExtractTraceContext(h); ok {
		t.Error("extract from empty headers succeeded")
	}
	tc := NewTraceContext()
	tc.Inject(h)
	got, ok := ExtractTraceContext(h)
	if !ok || got != tc {
		t.Errorf("inject/extract: got %+v, %v; want %+v", got, ok, tc)
	}
	// An invalid context must not emit a bogus header.
	var zero TraceContext
	h2 := make(http.Header)
	zero.Inject(h2)
	if v := h2.Get(TraceparentHeader); v != "" {
		t.Errorf("zero context injected %q", v)
	}
}

func TestContextWithTrace(t *testing.T) {
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)
	if got, ok := TraceFromContext(ctx); !ok || got != tc {
		t.Errorf("TraceFromContext = %+v, %v", got, ok)
	}
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Error("TraceFromContext on empty context succeeded")
	}
}

func TestCorrelatingHandler(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(NewCorrelatingHandler(slog.NewTextHandler(&buf, nil)))
	tc := NewTraceContext()

	log.InfoContext(ContextWithTrace(context.Background(), tc), "traced line")
	if out := buf.String(); !strings.Contains(out, "trace_id="+tc.TraceID) || !strings.Contains(out, "span_id="+tc.SpanID) {
		t.Errorf("traced line missing correlation ids: %s", out)
	}

	buf.Reset()
	log.Info("untraced line")
	if out := buf.String(); strings.Contains(out, "trace_id") {
		t.Errorf("untraced line grew a trace_id: %s", out)
	}

	// Correlation must survive Logger.With chains (WithAttrs wrapping).
	buf.Reset()
	log.With("job_id", "j1").InfoContext(ContextWithTrace(context.Background(), tc), "chained")
	if out := buf.String(); !strings.Contains(out, "trace_id="+tc.TraceID) || !strings.Contains(out, "job_id=j1") {
		t.Errorf("With chain lost correlation: %s", out)
	}

	// LoggerWithTrace stamps directly, for context-free call sites.
	buf.Reset()
	LoggerWithTrace(log, tc).Info("direct")
	if out := buf.String(); !strings.Contains(out, "trace_id="+tc.TraceID) {
		t.Errorf("LoggerWithTrace missing trace_id: %s", out)
	}
	if got := LoggerWithTrace(log, TraceContext{}); got != log {
		t.Error("LoggerWithTrace with zero context did not return the logger unchanged")
	}
}

func TestTraceStoreBounds(t *testing.T) {
	reg := NewRegistry()
	ts := NewTraceStore(3, 1, reg)
	ids := make([]string, 6)
	for i := range ids {
		tc := NewTraceContext()
		root := NewSpan("job", time.Unix(1754000000+int64(i), 0))
		root.Identify(tc, "")
		root.EndAt(time.Unix(1754000000+int64(i), 1000))
		ts.Put(tc.TraceID, root)
		ids[i] = tc.TraceID
	}
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", ts.Len())
	}
	for _, old := range ids[:3] {
		if ts.Get(old) != nil {
			t.Errorf("trace %s survived eviction", old)
		}
	}
	for _, fresh := range ids[3:] {
		if ts.Get(fresh) == nil {
			t.Errorf("trace %s missing", fresh)
		}
	}
	// Replacing an existing id neither grows the ring nor re-counts it.
	ts.Put(ids[5], ts.Get(ids[5]).Clone())
	if ts.Len() != 3 {
		t.Errorf("Len after replace = %d", ts.Len())
	}
	// List is oldest-first and matches the surviving set.
	list := ts.List()
	if len(list) != 3 || list[0].TraceID != ids[3] || list[2].TraceID != ids[5] {
		t.Errorf("List order wrong: %+v", list)
	}
	// Remove is the retention-GC tie-in.
	ts.Remove(ids[4])
	if ts.Len() != 2 || ts.Get(ids[4]) != nil {
		t.Errorf("Remove left Len=%d, Get=%v", ts.Len(), ts.Get(ids[4]))
	}
	ts.Remove("no-such-trace") // no-op
	if got := ts.SpanCount(); got != 2 {
		t.Errorf("SpanCount = %d, want 2", got)
	}
	if durs := ts.DurationsByName("job"); len(durs) != 2 {
		t.Errorf("DurationsByName = %v, want 2 closed roots", durs)
	}
}

// TestTraceStoreSpanGauge: after every step of a random mix of inserts,
// replacements (with trees that grew or shrank), ring evictions and
// removals, arbalestd_trace_spans_active equals the walk SpanCount does.
func TestTraceStoreSpanGauge(t *testing.T) {
	reg := NewRegistry()
	ts := NewTraceStore(8, 1, reg)
	rng := rand.New(rand.NewPCG(1, 2))
	tree := func() *Span {
		root := NewSpan("job", time.Unix(1754000000, 0))
		for range rng.IntN(4) {
			child := root.StartChild("phase", time.Time{})
			for range rng.IntN(3) {
				child.StartChild("step", time.Time{})
			}
		}
		return root
	}
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = NewTraceContext().TraceID
	}
	for step := range 2000 {
		id := ids[rng.IntN(len(ids))]
		if rng.IntN(4) == 0 {
			ts.Remove(id)
		} else {
			ts.Put(id, tree()) // insert, evict past capacity, or replace
		}
		if got, want := ts.spansGauge.Value(), int64(ts.SpanCount()); got != want {
			t.Fatalf("step %d: arbalestd_trace_spans_active = %d, SpanCount = %d", step, got, want)
		}
	}
}

func TestTraceStoreSampling(t *testing.T) {
	ts := NewTraceStore(8, 0.5, nil)
	in, out := 0, 0
	for i := 0; i < 1000; i++ {
		if ts.Admit() {
			in++
		} else {
			out++
		}
	}
	if in == 0 || out == 0 {
		t.Errorf("sample=0.5 over 1000 trials: admitted %d, dropped %d", in, out)
	}
	// <=0 and >1 normalize to "record everything".
	for _, rate := range []float64{0, -1, 2} {
		always := NewTraceStore(8, rate, nil)
		for i := 0; i < 100; i++ {
			if !always.Admit() {
				t.Fatalf("sample rate %v dropped a trace", rate)
			}
		}
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *TraceStore
	if ts.Admit() {
		t.Error("nil store admitted a trace")
	}
	ts.Put("id", NewSpan("x", time.Time{}))
	ts.Remove("id")
	if ts.Get("id") != nil || ts.Len() != 0 || ts.SpanCount() != 0 || ts.Capacity() != 0 {
		t.Error("nil store not empty")
	}
	if ts.List() != nil || ts.Roots() != nil || ts.DurationsByName("job") != nil {
		t.Error("nil store listed content")
	}
}

// buildTestTrace assembles a closed two-process-shaped tree with identity,
// counts, attrs, and an error child — every field the encodings must carry.
func buildTestTrace() (*Span, TraceContext) {
	tc := NewTraceContext()
	start := time.Unix(1754000000, 123456789).UTC()
	root := NewSpan("job", start)
	root.Identify(tc, "")
	root.SetCount("events", 42)
	lease := root.StartChild("lease", start.Add(time.Millisecond))
	lease.SetAttr("worker", "w1")
	lease.SetCount("token", 7)
	replay := lease.StartChild("replay", start.Add(2*time.Millisecond))
	replay.SetError("lease expired: heartbeats stopped")
	replay.EndAt(start.Add(5 * time.Millisecond))
	lease.EndAt(start.Add(6 * time.Millisecond))
	root.EndAt(start.Add(10 * time.Millisecond))
	return root, tc
}

// TestTraceJSONRoundTrip is the trace-store analogue of the promtest
// round-trip: what GET /v1/traces/{id} serves must decode back into an
// identical tree.
func TestTraceJSONRoundTrip(t *testing.T) {
	root, _ := buildTestTrace()
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var got Span
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(&got, root) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", &got, root)
	}
	// Identity fields are omitempty: an unidentified tree serializes with no
	// trace noise, byte-compatible with the pre-tracing schema.
	plain := NewSpan("job", time.Unix(1754000000, 0).UTC())
	pb, _ := json.Marshal(plain)
	for _, field := range []string{"traceId", "spanId", "parentSpanId"} {
		if bytes.Contains(pb, []byte(field)) {
			t.Errorf("unidentified span serialized %q: %s", field, pb)
		}
	}
}

// TestOTLPRoundTrip marshals the OTLP/JSON export and decodes it back,
// checking the protocol invariants a collector relies on: decimal-string
// nanosecond timestamps, preorder-complete span lists, resolvable parent
// links, enum status codes, and the service.name resource attribute.
func TestOTLPRoundTrip(t *testing.T) {
	root, tc := buildTestTrace()
	b, err := json.Marshal(OTLP("arbalestd", []*Span{root}))
	if err != nil {
		t.Fatal(err)
	}
	var got OTLPExport
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, b)
	}
	if len(got.ResourceSpans) != 1 || len(got.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected shape: %+v", got)
	}
	res := got.ResourceSpans[0]
	if len(res.Resource.Attributes) != 1 || res.Resource.Attributes[0].Key != "service.name" ||
		res.Resource.Attributes[0].Value.StringValue != "arbalestd" {
		t.Errorf("resource attributes: %+v", res.Resource.Attributes)
	}
	spans := res.ScopeSpans[0].Spans
	if len(spans) != root.SpanCount() {
		t.Fatalf("exported %d spans, tree has %d", len(spans), root.SpanCount())
	}
	byID := make(map[string]OTLPSpan, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		if sp.TraceID != tc.TraceID {
			t.Errorf("span %s trace id %s, want %s", sp.Name, sp.TraceID, tc.TraceID)
		}
		if sp.Kind != 1 {
			t.Errorf("span %s kind %d, want 1 (internal)", sp.Name, sp.Kind)
		}
		start, err1 := strconv.ParseInt(sp.StartTimeUnixNano, 10, 64)
		end, err2 := strconv.ParseInt(sp.EndTimeUnixNano, 10, 64)
		if err1 != nil || err2 != nil || end < start {
			t.Errorf("span %s timestamps %q..%q invalid", sp.Name, sp.StartTimeUnixNano, sp.EndTimeUnixNano)
		}
	}
	for _, sp := range spans {
		if sp.ParentSpanID == "" {
			continue
		}
		if _, ok := byID[sp.ParentSpanID]; !ok {
			t.Errorf("span %s parent %s not in export", sp.Name, sp.ParentSpanID)
		}
	}
	// Status codes follow the protocol enum; the error message rides along.
	if byID[root.SpanID].Status.Code != 1 {
		t.Errorf("ok root status %+v", byID[root.SpanID].Status)
	}
	replay := root.Find("replay")
	if st := byID[replay.SpanID].Status; st.Code != 2 || st.Message != replay.Error {
		t.Errorf("error span status %+v, want code 2 message %q", st, replay.Error)
	}
	// Count and attr attributes survive with their OTLP value types.
	lease := root.Find("lease")
	var sawWorker, sawToken bool
	for _, kv := range byID[lease.SpanID].Attributes {
		switch kv.Key {
		case "worker":
			sawWorker = kv.Value.StringValue == "w1"
		case "token":
			sawToken = kv.Value.IntValue == "7"
		}
	}
	if !sawWorker || !sawToken {
		t.Errorf("lease attributes incomplete: %+v", byID[lease.SpanID].Attributes)
	}
}
