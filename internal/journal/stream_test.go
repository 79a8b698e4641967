package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// appendSession journals a session record and opens its spool writer.
func appendSession(t *testing.T, j *Journal, rec Record) *StreamWriter {
	t.Helper()
	rec.Session = true
	if err := j.Append(rec, nil); err != nil {
		t.Fatal(err)
	}
	w, err := j.OpenStreamBytes(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestStreamAppendRecoverRoundTrip(t *testing.T) {
	j := mustOpen(t)
	rec := Record{ID: "stream-0", Tool: "arbalest", Submitted: time.Now()}
	w := appendSession(t, j, rec)
	var spool bytes.Buffer
	if err := sampleTrace(3).SaveFramed(&spool); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(spool.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Size(); err != nil || n != int64(spool.Len()) {
		t.Fatalf("spool size %d (%v), want %d", n, err, spool.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	streams, _, errs := j.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if len(streams) != 1 {
		t.Fatalf("recovered %d streams, want 1", len(streams))
	}
	got := streams[0]
	if got.ID != "stream-0" || got.Tool != "arbalest" {
		t.Errorf("recovered record %+v, want %+v", got.Record, rec)
	}
	if got.Status != StatusLive {
		t.Errorf("status %q, want live", got.Status)
	}
	if !bytes.Equal(got.Bytes, spool.Bytes()) {
		t.Errorf("recovered %d spool bytes, want %d", len(got.Bytes), spool.Len())
	}
	// The one scan tells the record apart from a job's.
	if !got.Session || got.Trace != nil {
		t.Errorf("recovered a live session as a job record: session %v, trace %v", got.Session, got.Trace)
	}
}

func TestStreamTerminalMarks(t *testing.T) {
	j := mustOpen(t)
	for _, tc := range []struct {
		id, status string
	}{
		{"stream-0", StatusDone},
		{"stream-1", StatusFailed},
		{"stream-2", StatusEvicted},
	} {
		appendSession(t, j, Record{ID: tc.id, Tool: "arbalest", Submitted: time.Now()}).Close()
		res := json.RawMessage(`{"events":9}`)
		if err := j.Mark(tc.id, tc.status, "why", res); err != nil {
			t.Fatal(err)
		}
	}
	streams, _, errs := j.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if len(streams) != 3 {
		t.Fatalf("recovered %d streams, want 3", len(streams))
	}
	for i, want := range []string{StatusDone, StatusFailed, StatusEvicted} {
		if streams[i].Status != want {
			t.Errorf("stream %d status %q, want %q", i, streams[i].Status, want)
		}
		if streams[i].Bytes != nil {
			t.Errorf("terminal stream %d still carries %d spool bytes", i, len(streams[i].Bytes))
		}
		if streams[i].Error != "why" {
			t.Errorf("stream %d error %q, want \"why\"", i, streams[i].Error)
		}
	}
}

func TestStreamCheckpointRoundTrip(t *testing.T) {
	j := mustOpen(t)
	appendSession(t, j, Record{ID: "stream-0", Tool: "arbalest", Submitted: time.Now()}).Close()
	ck := &trace.Checkpoint{JobID: "stream-0", Tool: "arbalest", NextEvent: 4, Events: 4, State: json.RawMessage(`{"x":1}`)}
	if err := j.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	streams, _, errs := j.Recover()
	if len(errs) != 0 || len(streams) != 1 {
		t.Fatalf("recover: %d streams, errs %v", len(streams), errs)
	}
	if streams[0].Checkpoint == nil || streams[0].Checkpoint.NextEvent != 4 {
		t.Fatalf("recovered checkpoint %+v, want NextEvent 4", streams[0].Checkpoint)
	}
}

func TestStreamTornMetaTailTruncated(t *testing.T) {
	j := mustOpen(t)
	appendSession(t, j, Record{ID: "stream-0", Tool: "arbalest", Submitted: time.Now()}).Close()
	if err := j.Mark("stream-0", StatusDone, "", nil); err != nil {
		t.Fatal(err)
	}
	// Tear the terminal mark: the session must recover live again.
	path := j.metaPath("stream-0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	streams, stats, errs := j.Recover()
	if len(errs) != 0 || len(streams) != 1 {
		t.Fatalf("recover: %d streams, errs %v", len(streams), errs)
	}
	if streams[0].Status != StatusLive {
		t.Errorf("status %q after torn terminal mark, want live", streams[0].Status)
	}
	if stats.TruncatedRecords != 1 {
		t.Errorf("TruncatedRecords %d, want 1", stats.TruncatedRecords)
	}
}

func TestStreamTruncateAndRemove(t *testing.T) {
	j := mustOpen(t)
	w := appendSession(t, j, Record{ID: "stream-0", Tool: "arbalest", Submitted: time.Now()})
	if _, err := w.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := j.TruncateStreamBytes("stream-0", 4); err != nil {
		t.Fatal(err)
	}
	streams, _, _ := j.Recover()
	if len(streams) != 1 || string(streams[0].Bytes) != "0123" {
		t.Fatalf("spool after truncate = %q, want \"0123\"", streams[0].Bytes)
	}
	if err := j.Remove("stream-0"); err != nil {
		t.Fatal(err)
	}
	if streams, _, _ := j.Recover(); len(streams) != 0 {
		t.Fatalf("recovered %d streams after remove", len(streams))
	}
	if _, err := os.Stat(j.tracePath("stream-0")); !os.IsNotExist(err) {
		t.Errorf("trace survives Remove: %v", err)
	}
}

// TestRecoverMigratesLegacySession: sessions spooled in the layout before
// jobs and sessions shared one record come back through the one scan, with
// the traceparent that layout kept in Key, whether the crash left both
// legacy names or cut a migration off between its two renames.
func TestRecoverMigratesLegacySession(t *testing.T) {
	j := mustOpen(t)
	const tp = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	for id, spool := range map[string]string{"stream-0": ".sbytes", "stream-1": ".trace"} {
		line := `{"id":"` + id + `","tool":"arbalest","key":"` + tp + `","status":"live","time":"2026-01-02T03:04:05Z"}` + "\n"
		if err := os.WriteFile(filepath.Join(j.Dir(), id+".smeta"), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(j.Dir(), id+spool), []byte("spooled "+id), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, errs := j.Recover()
	if len(errs) != 0 || len(recs) != 2 {
		t.Fatalf("recover: %d records, errs %v; want 2", len(recs), errs)
	}
	for _, rec := range recs {
		if !rec.Session || rec.Status != StatusLive || string(rec.Bytes) != "spooled "+rec.ID {
			t.Errorf("%s: session %v status %q bytes %q, want a live session with its spool", rec.ID, rec.Session, rec.Status, rec.Bytes)
		}
		if rec.Traceparent != tp || rec.Key != "" {
			t.Errorf("%s: traceparent %q key %q, want the key moved to the traceparent", rec.ID, rec.Traceparent, rec.Key)
		}
		for _, old := range []string{".smeta", ".sbytes"} {
			if _, err := os.Stat(filepath.Join(j.Dir(), rec.ID+old)); !os.IsNotExist(err) {
				t.Errorf("%s%s survives the migration: %v", rec.ID, old, err)
			}
		}
	}
}
