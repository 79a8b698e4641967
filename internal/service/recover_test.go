package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promtest"
	"repro/internal/trace"
)

// postEvents uploads body to a session and returns the acknowledged view.
func postEvents(t *testing.T, client *http.Client, streamURL string, body []byte) stream.View {
	t.Helper()
	resp, err := client.Post(streamURL+"/events", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return decodeStreamView(t, resp)
}

// closeStream closes a session and returns its settled view.
func closeStream(t *testing.T, client *http.Client, streamURL string) stream.View {
	t.Helper()
	resp, err := client.Post(streamURL+"/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	v := decodeStreamView(t, resp)
	if v.Status != stream.StatusDone || v.Result == nil {
		t.Fatalf("session %s settled as %s (%s), want done with a result", v.ID, v.Status, v.Error)
	}
	return v
}

// assertSameRendered requires two rendered report lists to be equal.
func assertSameRendered(t *testing.T, label string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: findings differ\ngot:  %q\nwant: %q", label, got, want)
	}
}

// TestRecoverJobsAndSessionsInOneScan starts a service from a spool holding
// one record of each recoverable kind: a pending job, a running job with a
// checkpoint, a live session with a checkpoint and a torn spool tail, and a
// done session. The next life re-enqueues exactly the two jobs, which
// finish with the findings of an uninterrupted run, resumes the live
// session, which closes with the findings of an uninterrupted session, and
// lists the done session as history.
func TestRecoverJobsAndSessionsInOneScan(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")
	dir := t.TempDir()
	client := &http.Client{Timeout: time.Minute}

	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The first life is dropped on the floor, never shut down, like a
	// SIGKILL. Its one pool worker dies after the running job's first
	// checkpoint, so the job submitted next stays pending.
	s1 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl1, CheckpointEvery: 1})
	srv1 := httptest.NewServer(s1.Handler())
	faultinject.Enable("worker.crash", faultinject.Fault{Err: errors.New("simulated SIGKILL"), Count: 1})
	s1.Start()
	running, err := s1.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, running.ID+".ckpt")); err == nil && faultinject.Fired("worker.crash") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the running job never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the Goexit unwind finish
	faultinject.Reset()
	pending, err := s1.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}

	// An uninterrupted session, closed: its findings are the reference.
	done := openStream(t, client, srv1.URL, "arbalest")
	postEvents(t, client, srv1.URL+"/v1/streams/"+done.ID, frameStreamBody(t, tr, 0))
	wantSession := renderedSummary(closeStream(t, client, srv1.URL+"/v1/streams/"+done.ID).Result)
	assertSameRendered(t, "uninterrupted session", wantSession, renderedSummary(want))

	// A live session cut off halfway, checkpointed, whose spool the crash
	// tore mid-append.
	live := openStream(t, client, srv1.URL, "arbalest")
	half := len(tr.Events) / 2
	body := trace.StreamHeader()
	for i := 0; i < half; i++ {
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if v := postEvents(t, client, srv1.URL+"/v1/streams/"+live.ID, body); v.Events != uint64(half) {
		t.Fatalf("live session acknowledged %d events, want %d", v.Events, half)
	}
	if _, err := os.Stat(filepath.Join(dir, live.ID+".ckpt")); err != nil {
		t.Fatalf("live session has no checkpoint: %v", err)
	}
	srv1.Close()
	spool := filepath.Join(dir, live.ID+".trace")
	st, err := os.Stat(spool)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(spool, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl2, CheckpointEvery: 4})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 2 {
		t.Fatalf("re-enqueued %d jobs, want 2", requeued)
	}
	if jobs := s2.Jobs(); len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want the 2 journaled ones: %+v", len(jobs), jobs)
	}
	if got := s2.Streams(); len(got) != 2 || got[0].ID != done.ID || got[1].ID != live.ID {
		t.Fatalf("recovered sessions %+v, want %s and %s", got, done.ID, live.ID)
	}
	s2.Start()
	defer shutdownOrFail(t, s2)
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()

	for _, id := range []string{running.ID, pending.ID} {
		got := waitSettled(t, s2, id)
		if got.Status != StatusDone {
			t.Fatalf("recovered job %s: %s (%s), want done", id, got.Status, got.Error)
		}
		assertSameFindings(t, "recovered job "+id, got.Result, want)
	}
	if n := s2.Metrics().Snapshot().CheckpointsRestored; n < 1 {
		t.Errorf("CheckpointsRestored = %d, want >= 1", n)
	}

	hist, code, err := getStreamView(client, srv2.URL+"/v1/streams/"+done.ID)
	if err != nil || code != http.StatusOK {
		t.Fatalf("history session fetch: %d, %v", code, err)
	}
	if hist.Status != stream.StatusDone || hist.Result == nil {
		t.Fatalf("history session %+v, want done with its result", hist)
	}
	assertSameRendered(t, "history session", renderedSummary(hist.Result), wantSession)

	url := srv2.URL + "/v1/streams/" + live.ID
	v, code, err := getStreamView(client, url)
	if err != nil || code != http.StatusOK {
		t.Fatalf("resumed session fetch: %d, %v", code, err)
	}
	if v.Status != stream.StatusLive || v.Events != uint64(half) || v.ResumedFrom == 0 {
		t.Fatalf("resumed session %+v, want live at event %d from a checkpoint", v, half)
	}
	if st2, err := os.Stat(spool); err != nil || st2.Size() != st.Size() {
		t.Fatalf("spool after recovery: %v bytes (%v), want the torn tail cut back to %d", st2.Size(), err, st.Size())
	}
	postEvents(t, client, url, frameStreamBody(t, tr, int(v.Events)))
	assertSameRendered(t, "resumed session", renderedSummary(closeStream(t, client, url).Result), wantSession)
}

// TestSettledSessionKeepsCountsAcrossRestart: a session that ended before a
// restart reads after it as it did when it ended. A closed session and an
// evicted one come back from the spool with the status, events and bytes
// their view showed in the first life, and the closed one with its
// findings. (An evicted session journals no result, so its findings do not
// survive a restart.)
func TestSettledSessionKeepsCountsAcrossRestart(t *testing.T) {
	tr := recordTrace(t, 22)
	dir := t.TempDir()
	client := &http.Client{Timeout: time.Minute}

	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl1})
	srv1 := httptest.NewServer(s1.Handler())
	s1.Start()
	done := openStream(t, client, srv1.URL, "arbalest")
	postEvents(t, client, srv1.URL+"/v1/streams/"+done.ID, frameStreamBody(t, tr, 0))
	closed := closeStream(t, client, srv1.URL+"/v1/streams/"+done.ID)
	if closed.Events != uint64(len(tr.Events)) || closed.Bytes == 0 || closed.Findings == 0 {
		t.Fatalf("closed session %+v, want every event, its bytes and findings", closed)
	}
	evicted := openStream(t, client, srv1.URL, "arbalest")
	postEvents(t, client, srv1.URL+"/v1/streams/"+evicted.ID, frameStreamBody(t, tr, 0))
	if !s1.EvictStream(evicted.ID, "idle") {
		t.Fatal("eviction did not end the session")
	}
	gone, _, err := getStreamView(client, srv1.URL+"/v1/streams/"+evicted.ID)
	if err != nil || gone.Status != stream.StatusEvicted {
		t.Fatalf("evicted session %+v (%v), want evicted", gone, err)
	}
	srv1.Close()
	shutdownOrFail(t, s1)

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl2})
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []stream.View{closed, gone} {
		got, ok := s2.Stream(want.ID)
		if !ok {
			t.Fatalf("session %s not recovered", want.ID)
		}
		if got.Status != want.Status || got.Events != want.Events || got.Bytes != want.Bytes {
			t.Errorf("recovered %s: status %s, %d events, %d bytes; before the restart %s, %d, %d",
				want.ID, got.Status, got.Events, got.Bytes, want.Status, want.Events, want.Bytes)
		}
		if want.Status == stream.StatusDone && got.Findings != want.Findings {
			t.Errorf("recovered %s: %d findings, %d before the restart", want.ID, got.Findings, want.Findings)
		}
	}
}

// TestRecoverMigratesLegacySessionSpool: a live session whose files carry
// the names of the layout before jobs and sessions shared one record
// (<id>.smeta, <id>.sbytes), with its traceparent in the first meta line's
// key as that layout kept it, is renamed into the current layout, resumed
// under its trace, and closes with the findings of an uninterrupted
// session.
func TestRecoverMigratesLegacySessionSpool(t *testing.T) {
	tr := recordTrace(t, 22)
	dir := t.TempDir()
	client := &http.Client{Timeout: time.Minute}

	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Journal: jnl1, CheckpointEvery: 4})
	srv1 := httptest.NewServer(s1.Handler())
	view := openStream(t, client, srv1.URL, "arbalest")
	if view.TraceID == "" {
		t.Fatal("session opened untraced")
	}
	half := len(tr.Events) / 2
	body := trace.StreamHeader()
	for i := 0; i < half; i++ {
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	postEvents(t, client, srv1.URL+"/v1/streams/"+view.ID, body)
	srv1.Close() // the kill

	// Rewrite the record in the older layout: bare JSON meta lines (which
	// that layout's readers accept too) with the traceparent under "key".
	base := filepath.Join(dir, view.ID)
	meta, err := os.ReadFile(base + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	var legacy []byte
	for _, line := range strings.Split(strings.TrimSpace(string(meta)), "\n") {
		parts := strings.SplitN(line, " ", 3) // "c2 <crc> <json>"
		var e map[string]any
		if err := json.Unmarshal([]byte(parts[2]), &e); err != nil {
			t.Fatal(err)
		}
		if tp, ok := e["traceparent"]; ok {
			e["key"] = tp
			delete(e, "traceparent")
		}
		b, _ := json.Marshal(e)
		legacy = append(append(legacy, b...), '\n')
	}
	if err := os.WriteFile(base+".smeta", legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(base + ".meta"); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(base+".trace", base+".sbytes"); err != nil {
		t.Fatal(err)
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Journal: jnl2, CheckpointEvery: 4})
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer shutdownOrFail(t, s2)
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	for _, ext := range []string{".smeta", ".sbytes"} {
		if _, err := os.Stat(base + ext); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the migration: %v", base+ext, err)
		}
	}

	url := srv2.URL + "/v1/streams/" + view.ID
	v, code, err := getStreamView(client, url)
	if err != nil || code != http.StatusOK {
		t.Fatalf("migrated session fetch: %d, %v", code, err)
	}
	if v.Status != stream.StatusLive || v.Events != uint64(half) || v.ResumedFrom == 0 {
		t.Fatalf("migrated session %+v, want live at event %d from a checkpoint", v, half)
	}
	if v.TraceID != view.TraceID {
		t.Fatalf("migrated session rejoined trace %q, want %q", v.TraceID, view.TraceID)
	}
	postEvents(t, client, url, frameStreamBody(t, tr, int(v.Events)))
	got := renderedSummary(closeStream(t, client, url).Result)

	ref := openStream(t, client, srv2.URL, "arbalest")
	postEvents(t, client, srv2.URL+"/v1/streams/"+ref.ID, frameStreamBody(t, tr, 0))
	assertSameRendered(t, "migrated session", got, renderedSummary(closeStream(t, client, srv2.URL+"/v1/streams/"+ref.ID).Result))
}

// TestRecoveredJobKeepsItsTrace: a job journaled with a traceparent and
// recovered by a new Service finishes with a span tree under that trace,
// and the tree has the resumed replay.
func TestRecoveredJobKeepsItsTrace(t *testing.T) {
	tr := recordTrace(t, 22)
	dir := t.TempDir()
	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the job stays journaled pending when the life ends.
	s1 := New(Config{Workers: 1, Journal: jnl1})
	client := telemetry.NewTraceContext()
	v, _, err := s1.SubmitTrace(SubmitOptions{Tool: "arbalest", Traceparent: client.Traceparent()}, tr)
	if err != nil {
		t.Fatal(err)
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Journal: jnl2})
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v; want 1 job", n, err)
	}
	s2.Start()
	defer shutdownOrFail(t, s2)
	got := waitSettled(t, s2, v.ID)
	if got.Status != StatusDone || got.TraceID != client.TraceID {
		t.Fatalf("recovered job %s in trace %q, want done in %q", got.Status, got.TraceID, client.TraceID)
	}
	span, ok := s2.JobTrace(v.ID)
	if !ok || span == nil || span.TraceID != client.TraceID {
		t.Fatalf("recovered job's span tree %+v, want one in trace %s", span, client.TraceID)
	}
	if span.Child("replay") == nil {
		t.Fatalf("recovered job's span tree has no replay child: %+v", span)
	}
	if stored := s2.Traces().Get(client.TraceID); stored == nil || stored.Child("replay") == nil {
		t.Fatalf("trace store holds %+v for the recovered job, want its tree", stored)
	}
}

// recoverErrors reads arbalestd_journal_errors_total{op="recover"}.
func recoverErrors(t *testing.T, s *Service) float64 {
	t.Helper()
	var text strings.Builder
	if err := s.Metrics().Registry().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(text.String())
	if err != nil {
		t.Fatal(err)
	}
	smp, _ := promtest.Find(fams, "arbalestd_journal_errors_total", map[string]string{"op": "recover"})
	return smp.Value
}

// TestRecoverForeignStatus: a record whose last journaled status belongs
// to the other kind of record — a job marked evicted, a session marked
// running — is neither re-enqueued nor resumed. It comes back as failed
// history with a finish time and an error naming the status, counted under
// the recover journal errors, and is journaled failed, so the next life
// reads it as plain failed history.
func TestRecoverForeignStatus(t *testing.T) {
	tr := recordTrace(t, 1)
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := jnl.Append(journal.Record{ID: "job-0", Tool: "arbalest", Events: tr.Len(), Submitted: now}, tr); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Mark("job-0", journal.StatusEvicted, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{ID: "stream-0", Tool: "arbalest", Submitted: now, Session: true}, nil); err != nil {
		t.Fatal(err)
	}
	w, err := jnl.OpenStreamBytes("stream-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(frameStreamBody(t, tr, 0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := jnl.Mark("stream-0", journal.StatusRunning, "", nil); err != nil {
		t.Fatal(err)
	}

	for life, wantErrors := range []float64{2, 0} {
		jnl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1, Journal: jnl})
		requeued, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if requeued != 0 {
			t.Fatalf("life %d: re-enqueued %d jobs, want none", life, requeued)
		}
		s.Start()
		job, ok := s.Job("job-0")
		if !ok || job.Status != StatusFailed || job.Finished == nil || !strings.Contains(job.Error, `"evicted"`) {
			t.Fatalf("life %d: job %+v, want failed history naming status \"evicted\"", life, job)
		}
		sess, ok := s.Stream("stream-0")
		if !ok || sess.Status != stream.StatusFailed || sess.Finished == nil || !strings.Contains(sess.Error, `"running"`) {
			t.Fatalf("life %d: session %+v, want failed history naming status \"running\"", life, sess)
		}
		if got := recoverErrors(t, s); got != wantErrors {
			t.Fatalf("life %d: journal_errors_total{op=recover} = %v, want %v", life, got, wantErrors)
		}
		shutdownOrFail(t, s)
	}
}
