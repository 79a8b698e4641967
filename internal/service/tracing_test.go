// Tests for the daemon-side tracing surface: the /v1/traces query API, the
// standalone degradation of /v1/fleet/status, the disabled-tracing path, and
// span survival on failed and timed-out replays.
package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// getJSON decodes one GET into out, failing on non-200.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestTraceHTTPAndStandaloneFleetStatus drives the full query surface over
// one traced job: a client-minted traceparent joins the job to the caller's
// trace, the trace is listable, fetchable as a tree and as OTLP/JSON,
// exportable in bulk, and the standalone fleet status reports the inline
// pool as a pool, with no workers, and a span-derived latency digest.
func TestTraceHTTPAndStandaloneFleetStatus(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{Workers: 1, QueueSize: 8})
	s.Start()
	defer shutdownOrFail(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	client := telemetry.NewTraceContext()
	v, _, err := s.SubmitTrace(SubmitOptions{Tool: "arbalest", Traceparent: client.Traceparent()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != client.TraceID {
		t.Fatalf("job joined trace %s, client sent %s", v.TraceID, client.TraceID)
	}
	if done := waitSettled(t, s, v.ID); done.Status != StatusDone {
		t.Fatalf("job %s (%s), want done", done.Status, done.Error)
	}

	var list struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	getJSON(t, srv.URL+"/v1/traces", &list)
	if len(list.Traces) != 1 || list.Traces[0].TraceID != client.TraceID ||
		list.Traces[0].Name != "job" || list.Traces[0].Status != "ok" {
		t.Fatalf("trace list = %+v", list.Traces)
	}

	var root telemetry.Span
	getJSON(t, srv.URL+"/v1/traces/"+client.TraceID, &root)
	if root.TraceID != client.TraceID || root.ParentID != client.SpanID {
		t.Fatalf("root trace %s parent %s, want client's %s/%s", root.TraceID, root.ParentID, client.TraceID, client.SpanID)
	}
	replay := root.Find("replay")
	if replay == nil || replay.Status != "ok" || replay.Counts["events"] == 0 {
		t.Fatalf("replay span = %+v", replay)
	}

	var otlp telemetry.OTLPExport
	getJSON(t, srv.URL+"/v1/traces/"+client.TraceID+"?format=otlp", &otlp)
	if len(otlp.ResourceSpans) != 1 ||
		otlp.ResourceSpans[0].Resource.Attributes[0].Value.StringValue != "arbalestd" {
		t.Fatalf("otlp single-trace export = %+v", otlp)
	}
	var export telemetry.OTLPExport
	getJSON(t, srv.URL+"/v1/traces/export", &export)
	if len(export.ResourceSpans) != 1 || len(export.ResourceSpans[0].ScopeSpans[0].Spans) != root.SpanCount() {
		t.Fatalf("bulk export has wrong span count")
	}

	if resp, err := http.Get(srv.URL + "/v1/traces/no-such-trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
		}
	}

	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	if st.Role != "standalone" {
		t.Errorf("role = %q, want standalone", st.Role)
	}
	if len(st.Workers) != 0 || st.Pool == nil || st.Pool.Size != 1 || st.Pool.Running != 0 {
		t.Errorf("standalone workers = %+v, pool = %+v, want no workers and an idle pool of 1", st.Workers, st.Pool)
	}
	if st.Traces != 1 {
		t.Errorf("status reports %d traces, want 1", st.Traces)
	}
	if st.JobLatency == nil || st.JobLatency.Count != 1 || st.JobLatency.P50Nanos <= 0 {
		t.Errorf("job latency digest = %+v", st.JobLatency)
	}
}

// TestTracingDisabled: a negative TraceCapacity turns tracing off without
// turning off the API — jobs run untraced, the listing is empty, lookups
// 404, and fleet status still answers.
func TestTracingDisabled(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{Workers: 1, TraceCapacity: -1})
	s.Start()
	defer shutdownOrFail(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	client := telemetry.NewTraceContext()
	v, _, err := s.SubmitTrace(SubmitOptions{Tool: "arbalest", Traceparent: client.Traceparent()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != "" {
		t.Fatalf("disabled tracing still minted trace %s", v.TraceID)
	}
	if done := waitSettled(t, s, v.ID); done.Status != StatusDone {
		t.Fatalf("job %s (%s), want done", done.Status, done.Error)
	}
	var list struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	getJSON(t, srv.URL+"/v1/traces", &list)
	if len(list.Traces) != 0 {
		t.Fatalf("disabled store listed %+v", list.Traces)
	}
	if resp, err := http.Get(srv.URL + "/v1/traces/" + client.TraceID); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("lookup on disabled store: status %d, want 404", resp.StatusCode)
		}
	}
	var st FleetStatus
	getJSON(t, srv.URL+"/v1/fleet/status", &st)
	if st.Role != "standalone" || st.Traces != 0 {
		t.Errorf("fleet status with tracing disabled = %+v", st)
	}
}

// TestFailedAttemptSpansSurvive: a panicked analyzer and a timed-out
// replay both end their replay span with error status instead of dropping
// it — the failure is visible in the trace, not a hole.
func TestFailedAttemptSpansSurvive(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)

	s := New(Config{Workers: 1, QueueSize: 8})
	s.Start()
	faultinject.Enable("worker.replay", faultinject.Fault{Panic: "injected analyzer crash", Count: 1})
	v, _, err := s.SubmitTrace(SubmitOptions{Tool: "arbalest"}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitSettled(t, s, v.ID); done.Status != StatusFailed {
		t.Fatalf("panicked job %s, want failed", done.Status)
	}
	root, ok := s.JobTrace(v.ID)
	if !ok || root == nil {
		t.Fatal("panicked job has no trace")
	}
	replay := root.Find("replay")
	if replay == nil {
		t.Fatal("panicked attempt dropped its replay span")
	}
	if replay.Status != "error" || !strings.Contains(replay.Error, "analyzer panicked") {
		t.Fatalf("replay span = status %q error %q, want the panic recorded", replay.Status, replay.Error)
	}
	if replay.DurationNanos <= 0 {
		t.Errorf("panicked replay span has duration %d, want > 0", replay.DurationNanos)
	}
	if root.Status != "error" {
		t.Errorf("job root status %q, want error", root.Status)
	}
	shutdownOrFail(t, s)

	// Timeout: a nanosecond replay budget ends the replay; the span
	// records the deadline error.
	s2 := New(Config{Workers: 1, ReplayTimeout: time.Nanosecond})
	s2.Start()
	defer shutdownOrFail(t, s2)
	v2, _, err := s2.SubmitTrace(SubmitOptions{Tool: "arbalest"}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitSettled(t, s2, v2.ID); done.Status != StatusFailed {
		t.Fatalf("timed-out job %s, want failed", done.Status)
	}
	root2, ok := s2.JobTrace(v2.ID)
	if !ok || root2 == nil {
		t.Fatal("timed-out job has no trace")
	}
	replay2 := root2.Find("replay")
	if replay2 == nil || replay2.Status != "error" || !strings.Contains(replay2.Error, "deadline") {
		t.Fatalf("timed-out replay span = %+v, want error mentioning the deadline", replay2)
	}
}
