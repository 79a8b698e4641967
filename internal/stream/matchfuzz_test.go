package stream_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dracc"
	"repro/internal/trace"
)

// FuzzStreamMatchesDecode holds the session's ingest path, which decodes
// each accepted event straight into the replay driver's window, to batch
// replay. A framed body is fed to one session in read sizes the fuzzer
// chooses, with a run of frames the fuzzer chooses sent again right after
// it; the session must end with exactly the event count and findings of
// Decode and ReplayDurable of the body without the resend. A body that
// does not decode, or whose sequence numbers do not count up from zero, is
// FuzzStreamSession's business.
func FuzzStreamMatchesDecode(f *testing.F) {
	body := fuzzSeedBody()
	f.Add(body, uint16(0), uint16(0), uint16(0))
	f.Add(body, uint16(1), uint16(1), uint16(2))
	tr := recordDRACC(f, dracc.ByID(22))
	long := frameEvents(f, tr, 0)
	f.Add(long, uint16(4092), uint16(3), uint16(300))
	f.Add(long, uint16(52), uint16(250), uint16(20))
	f.Add(long, uint16(1), uint16(0), uint16(0))

	f.Fuzz(func(t *testing.T, body []byte, read, from, run uint16) {
		if !bytes.HasPrefix(body, []byte("ARBT")) {
			return
		}
		tr, err := trace.Decode(body, trace.Limits{MaxEvents: 4096})
		if err != nil {
			return
		}
		events := tr.Expand()
		for i := range events {
			if events[i].Seq != uint64(i) {
				return
			}
		}
		// ends[k] is the offset just past frame k.
		ends := make([]int, 0, len(events))
		for pos := len(trace.StreamHeader()); pos < len(body); {
			pos += 8 + int(binary.LittleEndian.Uint32(body[pos:]))
			ends = append(ends, pos)
		}
		sent := body
		if len(ends) > 0 {
			i := int(from) % len(ends)
			j := i + 1 + int(run)%(len(ends)-i)
			start := len(trace.StreamHeader())
			if i > 0 {
				start = ends[i-1]
			}
			at := ends[j-1]
			sent = append(append(append([]byte(nil), body[:at]...), body[start:at]...), body[at:]...)
		}
		want := batchReports(t, tr, "arbalest")

		h := newTestService(t, nil)
		s := openSession(t, h, "arbalest")
		feedChunks(t, s, sent, 1+int(read)%4096)
		view, err := h.CloseStream(s.ID())
		if err != nil {
			t.Fatalf("finalize: %v", err)
		}
		if view.Events != uint64(len(events)) {
			t.Fatalf("session applied %d events, Decode found %d", view.Events, len(events))
		}
		got := make([]string, len(view.Result.Reports))
		for i := range view.Result.Reports {
			got[i] = view.Result.Reports[i].String()
		}
		assertSameReports(t, "resent", got, want)
	})
}
