package stream_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dracc"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/service"
	. "repro/internal/stream"
	"repro/internal/trace"
)

// TestStreamSpoolHoldsAcceptedFrames: a session spools the frames it
// accepted as they arrived. After a first request and a resend that
// overlaps it, the spool is one header followed by every event's frame
// exactly once, which for a recorded trace is its framed encoding.
func TestStreamSpoolHoldsAcceptedFrames(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordDRACC(t, dracc.ByID(22))
	h := newTestService(t, func(c *service.Config) { c.Journal = jnl })
	s := openSession(t, h, "arbalest")
	half := len(tr.Events) / 2
	first := trace.StreamHeader()
	for i := range half {
		if first, err = trace.AppendEventFrame(first, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	feedChunks(t, s, first, 7)
	feedChunks(t, s, frameEvents(t, tr, half/2), 0) // resends half/2 .. half-1
	if got := viewOf(h, s).Events; got != uint64(len(tr.Events)) {
		t.Fatalf("session applied %d events, want %d", got, len(tr.Events))
	}
	spool, err := os.ReadFile(filepath.Join(dir, s.ID()+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.SaveFramed(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spool, want.Bytes()) {
		t.Fatalf("spool holds %d bytes, want the %d-byte header and accepted frames", len(spool), want.Len())
	}
}

// feedExpectingPanic feeds body to s, a session of svc, in one request and
// requires the injected analyzer panic to fail the session.
func feedExpectingPanic(t *testing.T, svc *service.Service, s *Session, body []byte) {
	t.Helper()
	if err := s.StartIngest(); err != nil {
		t.Fatal(err)
	}
	err := s.Feed(body)
	s.EndIngest()
	if err == nil || !strings.Contains(err.Error(), "analyzer panic: injected") {
		t.Fatalf("feed: %v, want the injected analyzer panic", err)
	}
	if v := viewOf(svc, s); v.Status != StatusFailed || !strings.Contains(v.Error, "analyzer panic: injected") {
		t.Fatalf("session %s (%q), want failed with the panic", v.Status, v.Error)
	}
}

// TestStreamReplayPanicFailsOnlyItsSession: an analyzer panic between a
// batch's spool write and its replay (the stream.replay fault point) fails
// that session and nothing else. A sibling session on the same hub
// finishes with the findings of an uninterrupted run; a hub recovered from
// the spool keeps the failed session failed without re-feeding its
// spooled, never-applied batch. When the failed mark is lost too
// (journal.mark), recovery re-feeds the batch, meets the panic
// again and fails that session, not the hub.
func TestStreamReplayPanicFailsOnlyItsSession(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordDRACC(t, dracc.ByID(22))
	want := batchReports(t, tr, "arbalest")
	body := frameEvents(t, tr, 0)
	hub := func(dir string) *service.Service {
		jnl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newTestService(t, func(c *service.Config) { c.Journal = jnl })
	}
	finish := func(h *service.Service, s *Session) {
		t.Helper()
		feedChunks(t, s, body, 0)
		v, err := h.CloseStream(s.ID())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(v.Result.Reports))
		for i := range v.Result.Reports {
			got[i] = v.Result.Reports[i].String()
		}
		assertSameReports(t, "sibling session", got, want)
	}
	injected := faultinject.Fault{Panic: "injected", Count: 1}

	t.Run("marked failed", func(t *testing.T) {
		dir := t.TempDir()
		h1 := hub(dir)
		crashed, sibling := openSession(t, h1, "arbalest"), openSession(t, h1, "arbalest")
		faultinject.Enable("stream.replay", injected)
		feedExpectingPanic(t, h1, crashed, body)
		if v := viewOf(h1, crashed); v.Events != 0 {
			t.Fatalf("crashed session applied %d events, want 0", v.Events)
		}
		spool, err := os.ReadFile(filepath.Join(dir, crashed.ID()+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		if len(spool) <= len(trace.StreamHeader()) {
			t.Fatalf("spool holds %d bytes, want the batch written before the panic", len(spool))
		}
		finish(h1, sibling)

		// Armed again, the point must not fire: recovery leaves a failed
		// session's spool alone.
		faultinject.Enable("stream.replay", faultinject.Fault{Err: errors.New("re-fed"), Count: 1})
		h2 := hub(dir)
		if live, err := recoverLive(h2); err != nil || live != 0 {
			t.Fatalf("recovery: %d live, err %v; want 0, nil", live, err)
		}
		if n := faultinject.Fired("stream.replay"); n != 0 {
			t.Fatalf("recovery replayed a batch %d times, want none", n)
		}
		s, ok := h2.Session(crashed.ID())
		if !ok {
			t.Fatal("failed session missing after recovery")
		}
		if v := viewOf(h2, s); v.Status != StatusFailed || !strings.Contains(v.Error, "analyzer panic: injected") {
			t.Fatalf("recovered session %s (%q), want failed with the panic", v.Status, v.Error)
		}
		faultinject.Disable("stream.replay")
	})

	t.Run("mark lost", func(t *testing.T) {
		dir := t.TempDir()
		h1 := hub(dir)
		crashed := openSession(t, h1, "arbalest")
		faultinject.Enable("stream.replay", injected)
		faultinject.Enable("journal.mark", faultinject.Fault{Err: errors.New("disk full")})
		feedExpectingPanic(t, h1, crashed, body)
		faultinject.Disable("journal.mark")

		faultinject.Enable("stream.replay", injected)
		h2 := hub(dir)
		if live, err := recoverLive(h2); err != nil || live != 0 {
			t.Fatalf("recovery: %d live, err %v; want 0, nil", live, err)
		}
		if n := faultinject.Fired("stream.replay"); n != 1 {
			t.Fatalf("recovery met the panic %d times, want once", n)
		}
		s, ok := h2.Session(crashed.ID())
		if !ok {
			t.Fatal("session missing after recovery")
		}
		if v := viewOf(h2, s); v.Status != StatusFailed || !strings.Contains(v.Error, "recovery: stream: analyzer panic: injected") {
			t.Fatalf("recovered session %s (%q), want failed by the re-fed panic", v.Status, v.Error)
		}
		finish(h2, openSession(t, h2, "arbalest"))
	})
}
