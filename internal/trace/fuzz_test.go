package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/trace"
)

// fuzzSeedTrace builds a small valid trace without a *testing.T (f.Add runs
// before any fuzz iteration).
func fuzzSeedTrace() *trace.Trace {
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 1, Name: "gpu0"})
	rec.OnAccess(ompt.AccessEvent{Addr: mem.Addr(0x1000), Size: 8, Write: true, Device: 1, Task: 1})
	rec.OnSync(ompt.SyncEvent{Task: 1})
	return rec.Trace()
}

// FuzzDecodeTrace throws arbitrary bytes at the auto-detecting trace decoder.
// The decoder must never panic, and any input it accepts must survive a
// framed re-encode/re-decode round trip with deeply equal events.
func FuzzDecodeTrace(f *testing.F) {
	tr := fuzzSeedTrace()
	var framed, lines bytes.Buffer
	if err := tr.SaveFramed(&framed); err != nil {
		f.Fatal(err)
	}
	if err := tr.Save(&lines); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(lines.Bytes())
	f.Add(framed.Bytes()[:len(framed.Bytes())-3]) // torn frame
	flipped := bytes.Clone(framed.Bytes())
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("ARBT\x01\x00\x00\x00")) // bare header, zero frames
	f.Add([]byte(`{"kind":"sync","seq":0,"sync":{"task":1}}` + "\n"))
	f.Add([]byte{})
	f.Add(v1Framed(f, tr)) // JSON payloads behind a version-1 header

	lim := trace.Limits{MaxEvents: 4096, MaxBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.LoadLimited(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.SaveFramed(&out); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		again, err := trace.Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded trace failed: %v", err)
		}
		if !reflect.DeepEqual(again.Expand(), got.Expand()) {
			t.Fatalf("round trip changed the events (%d decoded, %d after re-encoding)", got.Len(), again.Len())
		}
	})
}
