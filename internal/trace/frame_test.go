package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/dracc"
	"repro/internal/trace"
)

// framedBytes serializes tr in the CRC32C-framed encoding.
func framedBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.SaveFramed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// richTrace records the report-rich DRACC benchmark used across the framing
// tests.
func richTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := dracc.ByID(22)
	if b == nil {
		t.Fatal("DRACC_OMP_022 missing")
	}
	return recordDRACC(t, b)
}

// TestFramedRoundTrip: SaveFramed -> Load reproduces the trace exactly —
// same events, same findings — with readers auto-detecting the format.
func TestFramedRoundTrip(t *testing.T) {
	tr := richTrace(t)
	want := renderedReports(t, tr, "arbalest")

	got, err := trace.Load(bytes.NewReader(framedBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("round-tripped %d events, want %d", len(got.Events), len(tr.Events))
	}
	reports := renderedReports(t, got, "arbalest")
	if len(reports) != len(want) {
		t.Fatalf("framed trace produced %d reports, want %d", len(reports), len(want))
	}
	for i := range want {
		if reports[i] != want[i] {
			t.Fatalf("report %d differs\nframed: %s\nwant:   %s", i, reports[i], want[i])
		}
	}
}

// TestFramedCorruptionTable mutates a valid framed trace every way a disk
// or network can and requires each decode to fail with a structured
// *CorruptionError — offset, reason, no panic — never a mis-parse.
func TestFramedCorruptionTable(t *testing.T) {
	tr := richTrace(t)
	pristine := framedBytes(t, tr)
	const fileHeader = 8 // "ARBT" + version + 3 reserved bytes

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	// garbageFrame is a frame whose CRC is valid but whose payload is not an
	// event, after a valid file header.
	garbageFrame := func(payload []byte) []byte {
		out := []byte("ARBT\x01\x00\x00\x00")
		var prefix [8]byte
		binary.LittleEndian.PutUint32(prefix[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(prefix[4:8], crc32.Checksum(payload, castagnoli))
		out = append(out, prefix[:]...)
		return append(out, payload...)
	}

	cases := []struct {
		name       string
		input      func() []byte
		wantReason string
	}{
		{"bit-flip-in-payload", func() []byte {
			d := bytes.Clone(pristine)
			d[fileHeader+8+2] ^= 0x40 // inside the first frame's payload
			return d
		}, "checksum mismatch"},
		{"torn-frame-payload", func() []byte {
			return pristine[:len(pristine)-3]
		}, "torn frame payload"},
		{"torn-frame-header", func() []byte {
			return pristine[:fileHeader+3] // 3 of the 8 prefix bytes
		}, "torn frame header"},
		{"unsupported-version", func() []byte {
			d := bytes.Clone(pristine)
			d[4] = 9
			return d
		}, "unsupported version"},
		{"oversized-frame-length", func() []byte {
			d := bytes.Clone(pristine)
			binary.LittleEndian.PutUint32(d[fileHeader:fileHeader+4], trace.MaxFramePayload+1)
			return d
		}, "exceeds limit"},
		{"payload-not-json", func() []byte {
			return garbageFrame([]byte("]["))
		}, "not a valid event"},
		{"payload-fails-validation", func() []byte {
			return garbageFrame([]byte(`{"kind":"nope"}`))
		}, "fails event validation"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.Load(bytes.NewReader(tc.input()))
			if err == nil {
				t.Fatal("corrupted input decoded without error")
			}
			var ce *trace.CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) is not a *CorruptionError", err, err)
			}
			if ce.Offset < 0 {
				t.Errorf("offset %d is negative", ce.Offset)
			}
			if !strings.Contains(ce.Reason, tc.wantReason) {
				t.Errorf("reason %q does not mention %q", ce.Reason, tc.wantReason)
			}
		})
	}
}

// TestCorruptMagicFallsBackToJSONLines: when the magic itself is damaged the
// sniffer cannot recognize the framed format, so the input is treated as
// JSON lines and rejected with that decoder's error — still no panic, still
// no silent mis-parse.
func TestCorruptMagicFallsBackToJSONLines(t *testing.T) {
	d := framedBytes(t, richTrace(t))
	d[0] ^= 0xff
	_, err := trace.Load(bytes.NewReader(d))
	if err == nil {
		t.Fatal("input with corrupt magic decoded without error")
	}
}

// TestFramedRespectsLimits: the framed decoder enforces the same
// sentinel-limit errors as the JSON-lines path.
func TestFramedRespectsLimits(t *testing.T) {
	data := framedBytes(t, richTrace(t))
	if _, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{MaxEvents: 1}); !errors.Is(err, trace.ErrTooManyEvents) {
		t.Errorf("MaxEvents=1: got %v, want ErrTooManyEvents", err)
	}
	if _, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{MaxBytes: 64}); !errors.Is(err, trace.ErrTooManyBytes) {
		t.Errorf("MaxBytes=64: got %v, want ErrTooManyBytes", err)
	}
}
