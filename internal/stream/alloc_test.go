package stream

import (
	"runtime"
	"testing"

	"repro/internal/omp"
	"repro/internal/specaccel"
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
	h := newTestHub(t, func(c *Config) { c.MaxStreams = -1; c.MaxFinished = 1 })
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
		if _, err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	perEvent := float64(total) / float64(events)
	t.Logf("streaming %d inputs allocates %d bytes over %d events (%.1f per event)", len(inputs), total, events, perEvent)
	if perEvent > maxPerEvent {
		t.Errorf("streaming allocates %.1f bytes per event, want at most %d", perEvent, maxPerEvent)
	}
}
