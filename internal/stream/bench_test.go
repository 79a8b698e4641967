package stream_test

import (
	"testing"

	"repro/internal/journal"
	"repro/internal/omp"
	"repro/internal/service"
	"repro/internal/specaccel"
	"repro/internal/trace"
)

// BenchmarkSession measures the session layer on the Fig. 8 traces: push
// decode, the sequence protocol, spooling and replay, with the events sent
// as 1024-event requests (each a complete framed body), with and without a
// journal. ns/event is per streamed event, open and close included.
func BenchmarkSession(b *testing.B) {
	const chunkEvents = 1024
	for _, w := range specaccel.All() {
		rec := trace.NewRecorder()
		rt := omp.NewRuntime(omp.Config{NumThreads: 2, ForceSync: true}, rec)
		if err := rt.Run(func(c *omp.Context) error { return w.Run(c, 2) }); err != nil {
			b.Fatal(err)
		}
		tr := rec.Trace()
		var chunks [][]byte
		for lo := 0; lo < len(tr.Events); lo += chunkEvents {
			c := trace.StreamHeader()
			for i := lo; i < min(lo+chunkEvents, len(tr.Events)); i++ {
				var err error
				if c, err = trace.AppendEventFrame(c, &tr.Events[i]); err != nil {
					b.Fatal(err)
				}
			}
			chunks = append(chunks, c)
		}
		for _, journaled := range []bool{false, true} {
			name := w.Name + "/memory"
			if journaled {
				name = w.Name + "/journaled"
			}
			b.Run(name, func(b *testing.B) {
				var jnl *journal.Journal
				if journaled {
					var err error
					if jnl, err = journal.Open(b.TempDir()); err != nil {
						b.Fatal(err)
					}
				}
				h := newService(func(c *service.Config) { c.MaxStreams, c.MaxFinishedJobs, c.Journal = -1, 1, jnl })
				defer shutdown(h)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := openSession(b, h, "arbalest")
					for _, c := range chunks {
						feedChunks(b, s, c, 0)
					}
					if _, err := h.CloseStream(s.ID()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
			})
		}
	}
}
