package stream_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/service"
	. "repro/internal/stream"
	"repro/internal/trace"
)

// fuzzSeedBody builds a small valid framed request body without a
// *testing.T (f.Add runs before any fuzz iteration).
func fuzzSeedBody() []byte {
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 1, Name: "gpu0"})
	rec.OnAccess(ompt.AccessEvent{Addr: mem.Addr(0x1000), Size: 8, Write: true, Device: 1, Task: 1})
	rec.OnSync(ompt.SyncEvent{Task: 1})
	tr := rec.Trace()
	body := trace.StreamHeader()
	for i := range tr.Events {
		var err error
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			panic(err)
		}
	}
	return body
}

// FuzzStreamSession throws arbitrary chunk sequences at a live session:
// torn frames (byte-granularity chunking over mutated input), duplicated
// frames, and bit flips. Whatever arrives, a session must never panic; a
// rejected feed must fail the session exactly once — counted as corruption
// when it is a *trace.CorruptionError — and must never wedge the hub: a
// fresh session on the same hub still analyzes a clean stream afterwards.
func FuzzStreamSession(f *testing.F) {
	body := fuzzSeedBody()
	f.Add(body, uint8(0))
	f.Add(body, uint8(1)) // byte-at-a-time: every frame torn across feeds
	f.Add(body[:len(body)-3], uint8(7))
	flipped := bytes.Clone(body)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped, uint8(16))
	// A duplicated frame block: the tail frames repeated verbatim, which the
	// sequence protocol must skip (duplicate) or reject (gap), never apply
	// twice.
	hdr := len(trace.StreamHeader())
	f.Add(append(bytes.Clone(body), body[hdr:]...), uint8(32))
	f.Add([]byte("ARBT\x01\x00\x00\x00"), uint8(0))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		h := newService(func(c *service.Config) { c.MaxEvents = 4096; c.StreamMaxBytes = 1 << 20 })
		defer shutdown(h)
		v, err := h.OpenStream("arbalest", "", "")
		if err != nil {
			t.Fatal(err)
		}
		s, _ := h.Session(v.ID)
		if err := s.StartIngest(); err != nil {
			t.Fatal(err)
		}
		size := int(chunk)
		if size == 0 {
			size = len(data)
		}
		var ferr error
		for off := 0; off < len(data) && ferr == nil; off += size {
			end := min(off+size, len(data))
			ferr = s.Feed(data[off:end])
		}
		if ferr == nil {
			ferr = s.FinishIngest()
		}
		s.EndIngest()

		if ferr != nil {
			if errors.Is(ferr, ErrBudget) {
				t.Fatalf("budget breach under MaxBytes=1MiB for a %d-byte input", len(data))
			}
			if viewOf(h, s).Status != StatusFailed {
				t.Fatalf("feed error %v left session %s, want failed", ferr, viewOf(h, s).Status)
			}
			var ce *trace.CorruptionError
			if errors.As(ferr, &ce) && metric(t, h, "arbalestd_stream_corruption_total", nil) != 1 {
				t.Fatalf("corruption error not counted: %v", ferr)
			}
			if err := s.StartIngest(); !errors.Is(err, ErrTerminal) {
				t.Fatalf("failed session accepts ingest: %v", err)
			}
		} else if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatalf("clean session refused finalize: %v", err)
		}

		// The accept loop must survive whatever just happened: a fresh
		// session on the same hub analyzes a clean stream end to end.
		v2, err := h.OpenStream("arbalest", "", "")
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := h.Session(v2.ID)
		if err := s2.StartIngest(); err != nil {
			t.Fatal(err)
		}
		if err := s2.Feed(fuzzSeedBody()); err != nil {
			t.Fatalf("clean stream after chaos: %v", err)
		}
		if err := s2.FinishIngest(); err != nil {
			t.Fatal(err)
		}
		s2.EndIngest()
		if view, err := h.CloseStream(s2.ID()); err != nil || view.Events == 0 {
			t.Fatalf("clean session did not settle: %+v, %v", view, err)
		}
	})
}
