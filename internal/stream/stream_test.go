package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dracc"
	"repro/internal/journal"
	"repro/internal/omp"
	"repro/internal/service"
	. "repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promtest"
	"repro/internal/tools"
	"repro/internal/trace"
)

// recordDRACC records benchmark b exactly as the trace package's equivalence
// sweep does (multi-threaded runtime, forced-synchronous transfers), so the
// streamed findings face the same event sequences batch replay is proven on.
func recordDRACC(t testing.TB, b *dracc.Benchmark) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumDevices: b.Devices, NumThreads: 4, ForceSync: true}, rec)
	_ = rt.Run(func(c *omp.Context) error {
		b.Run(c)
		return nil
	})
	return rec.Trace()
}

// batchReports replays tr through trace.ReplayDurable and renders every
// report to its full string form — the baseline a streamed session must
// match byte for byte.
func batchReports(t testing.TB, tr *trace.Trace, toolName string) []string {
	t.Helper()
	a, err := tools.New(toolName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{}, a); err != nil {
		t.Fatalf("batch replay: %v", err)
	}
	reports := a.Sink().Reports()
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.String()
	}
	return out
}

// renderReports renders a findings page the same way batchReports renders
// the sink, so both sides compare as strings.
func renderReports(fv FindingsView) []string {
	out := make([]string, len(fv.Reports))
	for i := range fv.Reports {
		out[i] = fv.Reports[i].String()
	}
	return out
}

// frameEvents encodes tr.Events[from:] as one complete framed request body.
func frameEvents(t testing.TB, tr *trace.Trace, from int) []byte {
	t.Helper()
	buf := trace.StreamHeader()
	var err error
	for i := from; i < len(tr.Events); i++ {
		if buf, err = trace.AppendEventFrame(buf, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// newService builds the service that owns the sessions under test, with
// tracing off unless mutate turns it on. A service a test drops without
// shutting it down stands for a killed daemon.
func newService(mutate func(*service.Config)) *service.Service {
	cfg := service.Config{Workers: 1, TraceCapacity: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	return service.New(cfg)
}

// newTestService is newService, shut down when the test ends.
func newTestService(t testing.TB, mutate func(*service.Config)) *service.Service {
	t.Helper()
	svc := newService(mutate)
	t.Cleanup(func() { shutdown(svc) })
	return svc
}

// shutdown shuts svc down, as a daemon does on SIGTERM.
func shutdown(svc *service.Service) { _ = svc.Shutdown(context.Background()) }

// recoverLive recovers svc from its journal and counts the live sessions
// it resumed.
func recoverLive(svc *service.Service) (int, error) {
	if _, err := svc.Recover(); err != nil {
		return 0, err
	}
	live := 0
	for _, v := range svc.Streams() {
		if v.Status == StatusLive {
			live++
		}
	}
	return live, nil
}

// openSession opens a session on svc and returns it.
func openSession(t testing.TB, svc *service.Service, toolName string) *Session {
	t.Helper()
	v, err := svc.OpenStream(toolName, "", "")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := svc.Session(v.ID)
	if !ok {
		t.Fatalf("opened session %s not gettable", v.ID)
	}
	return s
}

// viewOf is the view svc serves of session s.
func viewOf(svc *service.Service, s *Session) View {
	v, _ := svc.Stream(s.ID())
	return v
}

// metric reads one counter of svc's metrics registry.
func metric(t testing.TB, svc *service.Service, name string, labels map[string]string) uint64 {
	t.Helper()
	var text strings.Builder
	if err := svc.Metrics().Registry().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(text.String())
	if err != nil {
		t.Fatal(err)
	}
	smp, _ := promtest.Find(fams, name, labels)
	return uint64(smp.Value)
}

// saturated reports whether svc's readiness probe names its session cap.
func saturated(svc *service.Service) bool {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	return strings.Contains(rec.Body.String(), `"streamsSaturated": true`)
}

// feedChunks pushes body through one ingest request in chunkBytes-sized
// Feed calls (the whole body at once when chunkBytes <= 0).
func feedChunks(t testing.TB, s *Session, body []byte, chunkBytes int) {
	t.Helper()
	if err := s.StartIngest(); err != nil {
		t.Fatal(err)
	}
	defer s.EndIngest()
	if chunkBytes <= 0 {
		chunkBytes = len(body)
	}
	for off := 0; off < len(body); off += chunkBytes {
		end := min(off+chunkBytes, len(body))
		if err := s.Feed(body[off:end]); err != nil {
			t.Fatalf("feed [%d:%d): %v", off, end, err)
		}
	}
	if err := s.FinishIngest(); err != nil {
		t.Fatal(err)
	}
}

// postEvents sends body to session s as one ingest request through svc's
// HTTP API, which traces the request as an "ingest" span.
func postEvents(t testing.TB, svc *service.Service, s *Session, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+s.ID()+"/events", bytes.NewReader(body))
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest request: %d %s", rec.Code, rec.Body)
	}
}

// streamedReports drives tr through a fresh session and returns the rendered
// findings of the settled summary. chunkEvents selects the ingest shape:
//
//	 0  one request, whole body in a single Feed
//	 n  one request, n events' frames per Feed call (the header rides on
//	    the first chunk) — n=1 is the 1-event-chunk case
//	-1  one request per event, each body a complete header+frame stream
//	    (the client-resume wire shape)
//	-2  one request, the body fed one byte at a time (every frame torn
//	    across Feed calls)
func streamedReports(t testing.TB, svc *service.Service, tr *trace.Trace, toolName string, chunkEvents int) []string {
	t.Helper()
	s := openSession(t, svc, toolName)
	switch {
	case chunkEvents == -1:
		for i := range tr.Events {
			body := trace.StreamHeader()
			var err error
			if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
				t.Fatal(err)
			}
			feedChunks(t, s, body, 0)
		}
	case chunkEvents == -2:
		feedChunks(t, s, frameEvents(t, tr, 0), 1)
	case chunkEvents == 0:
		feedChunks(t, s, frameEvents(t, tr, 0), 0)
	default:
		if err := s.StartIngest(); err != nil {
			t.Fatal(err)
		}
		chunk := trace.StreamHeader()
		var err error
		for i := range tr.Events {
			if chunk, err = trace.AppendEventFrame(chunk, &tr.Events[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%chunkEvents == 0 {
				if err := s.Feed(chunk); err != nil {
					t.Fatalf("feed event chunk ending at %d: %v", i, err)
				}
				chunk = nil
			}
		}
		if len(chunk) > 0 {
			if err := s.Feed(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.FinishIngest(); err != nil {
			t.Fatal(err)
		}
		s.EndIngest()
	}
	view, err := svc.CloseStream(s.ID())
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if view.Status != StatusDone {
		t.Fatalf("session %s after close, want done (error %q)", view.Status, view.Error)
	}
	if view.Events != uint64(len(tr.Events)) {
		t.Fatalf("session applied %d events, trace has %d", view.Events, len(tr.Events))
	}
	if view.Result == nil {
		t.Fatal("settled session has no result")
	}
	out := make([]string, len(view.Result.Reports))
	for i := range view.Result.Reports {
		out[i] = view.Result.Reports[i].String()
	}
	return out
}

func assertSameReports(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, batch produced %d\nstreamed: %q\nbatch: %q",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: report %d differs\nstreamed: %s\nbatch:    %s", label, i, got[i], want[i])
		}
	}
}

// TestStreamEquivalenceDRACC is the subsystem's correctness anchor: for
// every DRACC benchmark, the findings of a streamed session — at several
// chunk shapes, including 1-event chunks and byte-at-a-time feeds — are
// byte-identical (content and order) to trace.ReplayDurable over the same
// events.
func TestStreamEquivalenceDRACC(t *testing.T) {
	h := newTestService(t, func(c *service.Config) { c.MaxFinishedJobs = -1; c.MaxStreams = -1 })
	for _, b := range dracc.All() {
		tr := recordDRACC(t, b)
		want := batchReports(t, tr, "arbalest")
		if b.Defect == dracc.DefectNone && len(want) != 0 {
			t.Fatalf("%s: batch replay reported on a correct benchmark: %q", b.Name(), want)
		}
		for _, shape := range []struct {
			label       string
			chunkEvents int
		}{
			{"whole-body", 0},
			{"1-event-chunks", 1},
			{"7-event-chunks", 7},
		} {
			got := streamedReports(t, h, tr, "arbalest", shape.chunkEvents)
			assertSameReports(t, b.Name()+"/"+shape.label, got, want)
		}
	}
}

// TestStreamEquivalenceRequestShapes covers the expensive ingest shapes on
// one buggy benchmark: a separate ingest request per event (the resume wire
// shape, each body a complete framed stream) and a byte-at-a-time feed that
// tears every frame across Feed calls.
func TestStreamEquivalenceRequestShapes(t *testing.T) {
	h := newTestService(t, nil)
	b := dracc.ByID(22)
	tr := recordDRACC(t, b)
	want := batchReports(t, tr, "arbalest")
	assertSameReports(t, "request-per-event", streamedReports(t, h, tr, "arbalest", -1), want)
	assertSameReports(t, "byte-at-a-time", streamedReports(t, h, tr, "arbalest", -2), want)
}

// TestStreamDuplicatesSkipped proves resume-by-resend is safe: a second
// request replaying the whole stream advances nothing, and an overlapping
// suffix applies only the unseen events.
func TestStreamDuplicatesSkipped(t *testing.T) {
	h := newTestService(t, nil)
	tr := recordDRACC(t, dracc.ByID(22))
	want := batchReports(t, tr, "arbalest")
	s := openSession(t, h, "arbalest")

	half := len(tr.Events) / 2
	body := trace.StreamHeader()
	var err error
	for i := 0; i < half; i++ {
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	feedChunks(t, s, body, 0)
	if got := viewOf(h, s).Events; got != uint64(half) {
		t.Fatalf("applied %d events, want %d", got, half)
	}

	// Full resend from zero: the first half are duplicates.
	feedChunks(t, s, frameEvents(t, tr, 0), 0)
	if got := viewOf(h, s).Events; got != uint64(len(tr.Events)) {
		t.Fatalf("after overlapping resend: applied %d events, want %d", got, len(tr.Events))
	}
	// And resending everything again is a complete no-op.
	feedChunks(t, s, frameEvents(t, tr, 0), 0)
	view, err := h.CloseStream(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(view.Result.Reports))
	for i := range view.Result.Reports {
		got[i] = view.Result.Reports[i].String()
	}
	assertSameReports(t, "after duplicate resends", got, want)
}

// TestStreamSequenceGap proves a gap in the sequence numbers is client
// corruption: the session fails with a counted *trace.CorruptionError and
// the hub stays usable.
func TestStreamSequenceGap(t *testing.T) {
	h := newTestService(t, nil)
	tr := recordDRACC(t, dracc.ByID(22))
	s := openSession(t, h, "arbalest")

	body := trace.StreamHeader()
	var err error
	if body, err = trace.AppendEventFrame(body, &tr.Events[0]); err != nil {
		t.Fatal(err)
	}
	// Skip event 1 entirely.
	if body, err = trace.AppendEventFrame(body, &tr.Events[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.StartIngest(); err != nil {
		t.Fatal(err)
	}
	ferr := s.Feed(body)
	s.EndIngest()
	var ce *trace.CorruptionError
	if !errors.As(ferr, &ce) {
		t.Fatalf("gap feed error %v, want *trace.CorruptionError", ferr)
	}
	if viewOf(h, s).Status != StatusFailed {
		t.Fatalf("session %s after gap, want failed", viewOf(h, s).Status)
	}
	if got := metric(t, h, "arbalestd_stream_corruption_total", nil); got != 1 {
		t.Fatalf("corruption counter %d, want 1", got)
	}
	if err := s.StartIngest(); !errors.Is(err, ErrTerminal) {
		t.Fatalf("ingest on failed session: %v, want ErrTerminal", err)
	}
	// The hub is not wedged: a fresh session still completes.
	if got := streamedReports(t, h, tr, "arbalest", 0); len(got) == 0 {
		t.Fatal("fresh session after corruption found nothing on a buggy benchmark")
	}
}

// TestStreamLimits exercises the protection knobs: byte budgets leave the
// eviction decision to the caller, event caps fail the session, admission
// caps refuse new sessions, and closed hubs drain.
func TestStreamLimits(t *testing.T) {
	tr := recordDRACC(t, dracc.ByID(22))
	body := frameEvents(t, tr, 0)

	t.Run("byte budget", func(t *testing.T) {
		h := newTestService(t, func(c *service.Config) { c.StreamMaxBytes = 64 })
		s := openSession(t, h, "arbalest")
		if err := s.StartIngest(); err != nil {
			t.Fatal(err)
		}
		defer s.EndIngest()
		if err := s.Feed(body); !errors.Is(err, ErrBudget) {
			t.Fatalf("over-budget feed: %v, want ErrBudget", err)
		}
		// ErrBudget does not fail the session by itself — the HTTP layer
		// evicts with a labeled reason.
		if viewOf(h, s).Status != StatusLive {
			t.Fatalf("session %s after budget breach, want live", viewOf(h, s).Status)
		}
		if !h.EvictStream(s.ID(), "budget") {
			t.Fatal("evict after budget breach did not transition")
		}
		if got := metric(t, h, "arbalestd_streams_evicted_total", map[string]string{"reason": "budget"}); got != 1 {
			t.Fatalf("evicted{budget} = %d, want 1", got)
		}
	})

	t.Run("event cap", func(t *testing.T) {
		h := newTestService(t, func(c *service.Config) { c.MaxEvents = 3 })
		s := openSession(t, h, "arbalest")
		if err := s.StartIngest(); err != nil {
			t.Fatal(err)
		}
		err := s.Feed(body)
		s.EndIngest()
		if !errors.Is(err, trace.ErrTooManyEvents) {
			t.Fatalf("over-cap feed: %v, want ErrTooManyEvents", err)
		}
		if viewOf(h, s).Status != StatusFailed {
			t.Fatalf("session %s after event cap, want failed", viewOf(h, s).Status)
		}
	})

	t.Run("admission cap", func(t *testing.T) {
		h := newTestService(t, func(c *service.Config) { c.MaxStreams = 1 })
		s := openSession(t, h, "arbalest")
		if _, err := h.OpenStream("arbalest", "", ""); !errors.Is(err, service.ErrStreamsSaturated) {
			t.Fatalf("open at cap: %v, want ErrSaturated", err)
		}
		if !saturated(h) {
			t.Fatal("hub at cap not Saturated")
		}
		if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatal(err)
		}
		if saturated(h) {
			t.Fatal("hub still saturated after the only session closed")
		}
		if _, err := h.OpenStream("arbalest", "", ""); err != nil {
			t.Fatalf("open after drain: %v", err)
		}
	})

	t.Run("draining", func(t *testing.T) {
		h := newTestService(t, nil)
		s := openSession(t, h, "arbalest")
		shutdown(h)
		if _, err := h.OpenStream("arbalest", "", ""); !errors.Is(err, ErrDraining) {
			t.Fatalf("open on closed hub: %v, want ErrDraining", err)
		}
		if err := s.StartIngest(); !errors.Is(err, ErrDraining) {
			t.Fatalf("ingest on closed hub: %v, want ErrDraining", err)
		}
	})

	t.Run("busy", func(t *testing.T) {
		h := newTestService(t, nil)
		s := openSession(t, h, "arbalest")
		if err := s.StartIngest(); err != nil {
			t.Fatal(err)
		}
		if err := s.StartIngest(); !errors.Is(err, ErrBusy) {
			t.Fatalf("second ingest: %v, want ErrBusy", err)
		}
		if _, err := h.CloseStream(s.ID()); !errors.Is(err, ErrBusy) {
			t.Fatalf("finalize mid-ingest: %v, want ErrBusy", err)
		}
		s.EndIngest()
		if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("unknown tool", func(t *testing.T) {
		h := newTestService(t, nil)
		if _, err := h.OpenStream("no-such-tool", "", ""); err == nil {
			t.Fatal("open with unknown tool succeeded")
		}
	})
}

// TestStreamFindingsCursor checks mid-stream reads: the findings list only
// appends, cursors stay stable, and a long-poller parked on an empty cursor
// wakes when the next chunk produces a report or the session settles.
func TestStreamFindingsCursor(t *testing.T) {
	h := newTestService(t, nil)
	tr := recordDRACC(t, dracc.ByID(22))
	want := batchReports(t, tr, "arbalest")
	if len(want) == 0 {
		t.Fatal("benchmark 22 produced no batch findings")
	}
	s := openSession(t, h, "arbalest")
	feedChunks(t, s, frameEvents(t, tr, 0), 0)

	all := s.Findings(0)
	assertSameReports(t, "mid-stream findings", renderReports(all), want)
	if all.Next != len(want) {
		t.Fatalf("next cursor %d, want %d", all.Next, len(want))
	}
	page := s.Findings(all.Next)
	if len(page.Reports) != 0 || page.Next != all.Next {
		t.Fatalf("tail page not empty: %+v", page)
	}
	// Out-of-range cursors clamp instead of panicking.
	if got := s.Findings(1 << 20); len(got.Reports) != 0 {
		t.Fatalf("oversized cursor returned %d reports", len(got.Reports))
	}

	// A parked long-poller wakes on finalize.
	done := make(chan FindingsView, 1)
	go func() { done <- s.WaitFindings(context.Background(), all.Next, time.Minute) }()
	waitForPoller(t, s)
	if _, err := h.CloseStream(s.ID()); err != nil {
		t.Fatal(err)
	}
	fv := <-done
	if fv.Status != StatusDone {
		t.Fatalf("woken poller saw status %s, want done", fv.Status)
	}
}

// waitForPoller spins until a WaitFindings goroutine has parked on the
// session's notify channel (observed as the session being lock-free long
// enough for the goroutine to have registered — bounded by the test clock).
func waitForPoller(t *testing.T, s *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ch := s.NotifyChannel(); ch != nil {
			// One scheduler yield is all the poller needs to park; the notify
			// snapshot-before-read protocol makes a missed wakeup impossible,
			// so this is a pacing aid, not a correctness gate.
			time.Sleep(10 * time.Millisecond)
			return
		}
	}
	t.Fatal("poller never parked")
}

// TestStreamRecovery is the killed-daemon scenario end to end, in-process:
// a live session with checkpoints is cut off mid-stream (spool abandoned
// without a clean close, a torn frame appended), a new hub over the same
// journal rebuilds it from the freshest checkpoint plus the spooled suffix,
// the client re-sends from the acknowledged position, and the final
// findings still match batch replay.
func TestStreamRecovery(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordDRACC(t, dracc.ByID(22))
	want := batchReports(t, tr, "arbalest")

	h1 := newService(func(c *service.Config) { c.Journal = jnl; c.CheckpointEvery = 4 })
	s1 := openSession(t, h1, "arbalest")
	id := s1.ID()
	half := len(tr.Events) / 2
	body := trace.StreamHeader()
	for i := 0; i < half; i++ {
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	feedChunks(t, s1, body, 0)
	if s1.CheckpointsWritten() == 0 {
		t.Fatal("no checkpoint was cut over half a benchmark with CheckpointEvery=4")
	}
	// Kill: no Close, no spool release. Worse, the crash tore a frame: the
	// spool ends mid-append. Recovery must truncate it off.
	if f, err := os.OpenFile(filepath.Join(dir, id+".trace"), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		t.Fatal(err)
	} else {
		if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := newTestService(t, func(c *service.Config) { c.Journal = jnl2; c.CheckpointEvery = 4 })
	live, err := recoverLive(h2)
	if err != nil {
		t.Fatal(err)
	}
	if live != 1 {
		t.Fatalf("recovered %d live sessions, want 1", live)
	}
	s2, ok := h2.Session(id)
	if !ok {
		t.Fatalf("recovered hub has no session %s", id)
	}
	v := viewOf(h2, s2)
	if v.Status != StatusLive {
		t.Fatalf("recovered session %s, want live", v.Status)
	}
	if v.Events != uint64(half) {
		t.Fatalf("recovered session at event %d, want %d", v.Events, half)
	}
	if v.ResumedFrom == 0 || v.ResumedFrom > uint64(half) {
		t.Fatalf("recovered session resumed from %d, want a checkpoint in (0, %d]", v.ResumedFrom, half)
	}

	// The client asks where the session stands and re-sends from there.
	feedChunks(t, s2, frameEvents(t, tr, int(v.Events)), 0)
	view, err := h2.CloseStream(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(view.Result.Reports))
	for i := range view.Result.Reports {
		got[i] = view.Result.Reports[i].String()
	}
	assertSameReports(t, "resumed session", got, want)

	// Third boot: the settled session comes back as history with its
	// journaled summary, not as a live session.
	jnl3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h3 := newTestService(t, func(c *service.Config) { c.Journal = jnl3 })
	if live, err := recoverLive(h3); err != nil || live != 0 {
		t.Fatalf("third recovery: %d live, err %v; want 0, nil", live, err)
	}
	s3, ok := h3.Session(id)
	if !ok {
		t.Fatal("settled session missing from third recovery")
	}
	v3 := viewOf(h3, s3)
	if v3.Status != StatusDone || v3.Result == nil || v3.Result.Issues != len(want) {
		t.Fatalf("history session: status %s result %+v, want done with %d issues", v3.Status, v3.Result, len(want))
	}
	assertSameReports(t, "history session", renderReports(s3.Findings(0)), want)
}

// TestStreamRecoveryUncheckpointed covers the no-checkpoint path: with
// CheckpointEvery unset the entire analyzer state is rebuilt by re-feeding
// the spool from its first byte.
func TestStreamRecoveryUncheckpointed(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordDRACC(t, dracc.ByID(26))
	want := batchReports(t, tr, "arbalest")

	h1 := newService(func(c *service.Config) { c.Journal = jnl })
	s1 := openSession(t, h1, "arbalest")
	feedChunks(t, s1, frameEvents(t, tr, 0), 0)
	id := s1.ID()
	// Kill without close or finalize.

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := newTestService(t, func(c *service.Config) { c.Journal = jnl2 })
	if live, err := recoverLive(h2); err != nil || live != 1 {
		t.Fatalf("recovery: %d live, err %v; want 1, nil", live, err)
	}
	s2, _ := h2.Session(id)
	if v := viewOf(h2, s2); v.Events != uint64(len(tr.Events)) || v.ResumedFrom != 0 {
		t.Fatalf("recovered at event %d (resumedFrom %d), want %d (0)", v.Events, v.ResumedFrom, len(tr.Events))
	}
	view, err := h2.CloseStream(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(view.Result.Reports))
	for i := range view.Result.Reports {
		got[i] = view.Result.Reports[i].String()
	}
	assertSameReports(t, "re-fed session", got, want)
}

// TestStreamAbortRemovesJournal checks DELETE semantics: an aborted session
// is failed, its journal files are gone, and the next boot does not
// resurrect it.
func TestStreamAbortRemovesJournal(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestService(t, func(c *service.Config) { c.Journal = jnl })
	s := openSession(t, h, "arbalest")
	if !h.AbortStream(s.ID()) {
		t.Fatal("abort did not transition")
	}
	if h.AbortStream(s.ID()) {
		t.Fatal("second abort reported a transition")
	}
	if _, err := os.Stat(filepath.Join(dir, s.ID()+".trace")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted spool still on disk: %v", err)
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := newTestService(t, func(c *service.Config) { c.Journal = jnl2 })
	recovered, _, _ := jnl2.Recover()
	if len(recovered) != 0 {
		t.Fatalf("aborted session survived in the journal: %+v", recovered)
	}
	_ = h2
}

// TestStreamRetention checks the retention GC on sessions: terminal
// sessions beyond the cap are dropped oldest-first, live sessions are never
// collected.
func TestStreamRetention(t *testing.T) {
	h := newTestService(t, func(c *service.Config) { c.MaxFinishedJobs = 2 })
	var ids []string
	for i := 0; i < 4; i++ {
		s := openSession(t, h, "arbalest")
		ids = append(ids, s.ID())
		if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	live := openSession(t, h, "arbalest")
	if _, ok := h.Session(ids[0]); ok {
		t.Fatal("oldest terminal session survived GC")
	}
	if _, ok := h.Session(ids[3]); !ok {
		t.Fatal("newest terminal session was collected")
	}
	if _, ok := h.Session(live.ID()); !ok {
		t.Fatal("live session was collected")
	}
	if got := len(h.Streams()); got != 3 {
		t.Fatalf("list has %d sessions, want 3 (2 retained + 1 live)", got)
	}
}

// TestStreamIdleEviction runs the janitor with a tiny idle timeout and
// checks an untouched session is evicted with the labeled reason while a
// session with a request attached is left alone.
func TestStreamIdleEviction(t *testing.T) {
	h := newTestService(t, func(c *service.Config) { c.StreamIdleTimeout = 30 * time.Millisecond })
	idle := openSession(t, h, "arbalest")
	attached := openSession(t, h, "arbalest")
	if err := attached.StartIngest(); err != nil {
		t.Fatal(err)
	}
	defer attached.EndIngest()
	h.Start()

	deadline := time.Now().Add(5 * time.Second)
	for viewOf(h, idle).Status == StatusLive && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := viewOf(h, idle).Status; got != StatusEvicted {
		t.Fatalf("idle session %s, want evicted", got)
	}
	if got := metric(t, h, "arbalestd_streams_evicted_total", map[string]string{"reason": "idle"}); got == 0 {
		t.Fatal("evicted{idle} counter did not move")
	}
	if got := viewOf(h, attached).Status; got != StatusLive {
		t.Fatalf("attached session %s, want live (busy sessions are never idle)", got)
	}
}

// TestStreamTraceContinuity: a session opened with a client traceparent is
// ONE trace across a daemon crash. The session's trace identity is journaled
// write-ahead with the stream record, so the recovered session publishes
// under the same trace and span IDs (a "restore" child marks the resume),
// and terminal GC evicts the trace together with the session.
func TestStreamTraceContinuity(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordDRACC(t, dracc.ByID(22))

	h1 := newService(func(c *service.Config) { c.Journal = jnl; c.CheckpointEvery = 4; c.TraceCapacity = 16 })
	traces1 := h1.Traces()
	client := telemetry.NewTraceContext()
	v, err := h1.OpenStream("arbalest", client.Traceparent(), "")
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != client.TraceID {
		t.Fatalf("session joined trace %s, client sent %s", v.TraceID, client.TraceID)
	}
	s1, ok := h1.Session(v.ID)
	if !ok {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2
	body := trace.StreamHeader()
	for i := 0; i < half; i++ {
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	postEvents(t, h1, s1, body)
	before := traces1.Get(client.TraceID)
	if before == nil {
		t.Fatalf("trace %s not published while live", client.TraceID)
	}
	if before.Name != "stream" || before.ParentID != client.SpanID {
		t.Fatalf("root = %s parent %s, want stream under client span %s", before.Name, before.ParentID, client.SpanID)
	}
	if before.Find("ingest") == nil {
		t.Fatal("no ingest span after a completed ingest request")
	}

	// Kill: no Close, no spool release — then recover into a fresh hub with
	// a fresh (empty) trace store, the way a restarted daemon starts.
	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := newTestService(t, func(c *service.Config) {
		c.Journal = jnl2
		c.CheckpointEvery = 4
		c.TraceCapacity = 16
		c.MaxFinishedJobs = 1
	})
	traces2 := h2.Traces()
	if live, err := recoverLive(h2); err != nil || live != 1 {
		t.Fatalf("recovered %d live sessions, err %v; want 1", live, err)
	}
	s2, ok := h2.Session(v.ID)
	if !ok {
		t.Fatalf("recovered hub has no session %s", v.ID)
	}
	v2 := viewOf(h2, s2)
	if v2.TraceID != client.TraceID {
		t.Fatalf("recovered session trace %s, want the original %s", v2.TraceID, client.TraceID)
	}
	root := traces2.Get(client.TraceID)
	if root == nil {
		t.Fatalf("recovered trace %s not republished", client.TraceID)
	}
	// The session's own identity survives exactly (trace id + span id from
	// the journaled traceparent); only the link up to the client's span is
	// lost — the journal carries the session's context, not its parent's.
	if root.SpanID != before.SpanID {
		t.Fatalf("recovered root span %s, want the exact pre-crash identity %s", root.SpanID, before.SpanID)
	}
	restore := root.Find("restore")
	if restore == nil {
		t.Fatal("recovery left no restore span")
	}
	if got := restore.Counts["resume_event"]; got != int64(v2.ResumedFrom) {
		t.Fatalf("restore span resume_event = %d, view says %d", got, v2.ResumedFrom)
	}

	// Resume, finish, and check the settled trace.
	postEvents(t, h2, s2, frameEvents(t, tr, int(v2.Events)))
	view, err := h2.CloseStream(s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	final := traces2.Get(client.TraceID)
	if final == nil || final.Status != "ok" || final.DurationNanos <= 0 {
		t.Fatalf("settled trace = %+v, want a closed ok root", final)
	}
	if got := final.Counts["events"]; got != int64(view.Events) {
		t.Fatalf("settled trace counts %d events, session applied %d", got, view.Events)
	}

	// Trace retention follows session retention: with MaxFinishedJobs=1, a
	// second settled session pushes the first out — and its trace with it.
	s3 := openSession(t, h2, "arbalest")
	if _, err := h2.CloseStream(s3.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := h2.Session(v.ID); ok {
		t.Fatal("oldest terminal session survived GC")
	}
	if traces2.Get(client.TraceID) != nil {
		t.Fatal("session evicted but its trace leaked in the store")
	}
}

// TestSessionDropsAnalyzerWhenTerminal: a session that goes terminal lets
// go of its analyzer (shadow slabs, race state), yet its view and findings
// read the same as just before, on the clean close path and the failure
// path alike.
func TestSessionDropsAnalyzerWhenTerminal(t *testing.T) {
	h := newTestService(t, nil)
	type snapshot struct {
		findings int
		events   uint64
		page     string
	}
	snap := func(s *Session) snapshot {
		v := viewOf(h, s)
		fv := s.Findings(0)
		page, err := json.Marshal(struct {
			Next    int
			Reports any
		}{fv.Next, fv.Reports})
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{v.Findings, v.Events, string(page)}
	}
	check := func(label string, s *Session, before snapshot, want Status) {
		t.Helper()
		if got := viewOf(h, s).Status; got != want {
			t.Fatalf("%s: status %s, want %s", label, got, want)
		}
		if after := snap(s); after != before {
			t.Errorf("%s: before the drop %+v, after %+v", label, before, after)
		}
		gone := !s.HoldsAnalyzer()
		if !gone {
			t.Errorf("%s: terminal session still holds its analyzer", label)
		}
	}

	for _, id := range []int{22, 1} { // one with findings, one without
		tr := recordDRACC(t, dracc.ByID(id))
		s := openSession(t, h, "arbalest")
		feedChunks(t, s, frameEvents(t, tr, 0), 0)
		before := snap(s)
		if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("done DRACC %d", id), s, before, StatusDone)
	}

	tr := recordDRACC(t, dracc.ByID(22))
	s := openSession(t, h, "arbalest")
	feedChunks(t, s, frameEvents(t, tr, 0), 0)
	before := snap(s)
	if before.findings == 0 {
		t.Fatal("DRACC 22 produced no findings to keep")
	}
	// A corrupt frame (payload byte flipped under its CRC) fails the session.
	bad := frameEvents(t, tr, len(tr.Events)-1)
	bad[len(bad)-1] ^= 0xFF
	if err := s.StartIngest(); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(bad); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	s.EndIngest()
	check("failed", s, before, StatusFailed)
}
