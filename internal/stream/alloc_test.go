package stream_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/omp"
	"repro/internal/service"
	"repro/internal/specaccel"
	. "repro/internal/stream"
	"repro/internal/trace"
)

// fig8Requests records the six submit-fig8 inputs (the five Fig. 8
// proxies at scale 2 and postencil-buggy) and frames each as the
// benchmark's stream workload sends it: 1024-event requests, each a
// complete framed body. It returns the requests per input and the event
// count.
func fig8Requests(t testing.TB) ([][][]byte, int) {
	t.Helper()
	const chunkEvents = 1024
	runs := []func(c *omp.Context) error{func(c *omp.Context) error {
		specaccel.RunPostencilBuggy(c, 2)
		return nil
	}}
	for _, w := range specaccel.All() {
		runs = append(runs, func(c *omp.Context) error { return w.Run(c, 2) })
	}
	var inputs [][][]byte
	events := 0
	for _, run := range runs {
		rec := trace.NewRecorder()
		_ = omp.NewRuntime(omp.Config{NumThreads: 2, ForceSync: true}, rec).Run(run)
		tr := rec.Trace()
		var reqs [][]byte
		for lo := 0; lo < len(tr.Events); lo += chunkEvents {
			body := trace.StreamHeader()
			for i := lo; i < min(lo+chunkEvents, len(tr.Events)); i++ {
				var err error
				if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
					t.Fatal(err)
				}
			}
			reqs = append(reqs, body)
		}
		inputs = append(inputs, reqs)
		events += len(tr.Events)
	}
	return inputs, events
}

// TestSessionBytesPerEvent guards what ingest allocates per streamed
// event: the six submit-fig8 inputs, each streamed through a session of
// its own as 1024-event requests read in odd 4093-byte pieces, allocate at
// most 64 bytes per event while they are fed, replay included. Events are
// decoded straight into the driver's window, with no payload per access
// (an access payload alone is over 100 bytes), and a read that splits a
// frame carries over only that frame's bytes (carrying over the whole
// read costs about 53 bytes per event). It counts bytes, not time, so it
// holds on any host.
func TestSessionBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerEvent = 64
	inputs, events := fig8Requests(t)
	h := newTestService(t, func(c *service.Config) { c.MaxStreams = -1; c.MaxFinishedJobs = 1 })
	var ms runtime.MemStats
	total := uint64(0)
	for _, reqs := range inputs {
		s := openSession(t, h, "arbalest")
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for _, body := range reqs {
			feedChunks(t, s, body, 4093)
		}
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - before
		if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	perEvent := float64(total) / float64(events)
	t.Logf("streaming %d inputs allocates %d bytes over %d events (%.1f per event)", len(inputs), total, events, perEvent)
	if perEvent > maxPerEvent {
		t.Errorf("streaming allocates %.1f bytes per event, want at most %d", perEvent, maxPerEvent)
	}
}

// uumTrace records a program whose one kernel reads n buffers mapped
// alloc, each uninitialized on the device: a session fed the trace
// reports n findings.
func uumTrace(t testing.TB, n int) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	err := omp.NewRuntime(omp.Config{NumThreads: 1, ForceSync: true}, rec).Run(func(c *omp.Context) error {
		bufs := make([]*omp.Buffer, n)
		maps := make([]omp.Map, n)
		for i := range bufs {
			bufs[i] = c.AllocI64(1, fmt.Sprintf("b%d", i))
			maps[i] = omp.Alloc(bufs[i])
		}
		c.Target(omp.Opts{Maps: maps}, func(k *omp.Context) {
			for _, b := range bufs {
				_ = k.LoadI64(b, 0)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// TestSessionViewDoesNotCopyFindings: a live session's view counts its
// findings without copying them, so serving the view of a session with
// many findings allocates what serving one with a single finding does.
// The view is built on every ingest response, GET /v1/streams/{id} and
// each entry of GET /v1/streams.
func TestSessionViewDoesNotCopyFindings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	h := newTestService(t, nil)
	perView := func(n int) uint64 {
		s := openSession(t, h, "arbalest")
		feedChunks(t, s, frameEvents(t, uumTrace(t, n), 0), 0)
		if v := viewOf(h, s); v.Status != StatusLive || v.Findings != n {
			t.Fatalf("session %s with %d findings, want live with %d", v.Status, v.Findings, n)
		}
		const views = 100
		var ms runtime.MemStats
		least := ^uint64(0)
		for range 5 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			for range views {
				viewOf(h, s)
			}
			runtime.ReadMemStats(&ms)
			least = min(least, (ms.TotalAlloc-before)/views)
		}
		return least
	}
	one, many := perView(1), perView(64)
	t.Logf("a view allocates %d bytes with 1 finding, %d with 64", one, many)
	if many != one {
		t.Errorf("a view allocates %d bytes with 64 findings, %d with 1; want the same", many, one)
	}
}
