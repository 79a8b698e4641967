package trace_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// v1Framed encodes tr as the version-1 framed format did: the "ARBT"
// header with version 1, then one frame per event whose payload is the
// event's JSON encoding.
func v1Framed(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := []byte("ARBT\x01\x00\x00\x00")
	for i := range tr.Events {
		p, err := json.Marshal(&tr.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
		out = append(out, p...)
	}
	return out
}

// specTraces records the five SPEC ACCEL proxies at scale and
// postencil-buggy, keyed by name.
func specTraces(t testing.TB, cfg omp.Config, scale int) map[string]*trace.Trace {
	t.Helper()
	out := make(map[string]*trace.Trace)
	for _, w := range specaccel.All() {
		rec := trace.NewRecorder()
		if err := omp.NewRuntime(cfg, rec).Run(func(c *omp.Context) error { return w.Run(c, scale) }); err != nil {
			t.Fatal(err)
		}
		out[w.Name] = rec.Trace()
	}
	rec := trace.NewRecorder()
	_ = omp.NewRuntime(cfg, rec).Run(func(c *omp.Context) error {
		specaccel.RunPostencilBuggy(c, scale)
		return nil
	})
	out["postencil-buggy"] = rec.Trace()
	return out
}

// invalidUTF8Trace holds strings that are not valid UTF-8, which a JSON
// encoding would rewrite to U+FFFD.
func invalidUTF8Trace(t *testing.T) *trace.Trace {
	loc := ompt.SourceLoc{File: "main\xff.c", Line: 12, Func: "kernel\xc3"}
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 0, Name: "gpu\x80"})
	rec.OnAlloc(ompt.AllocEvent{Addr: 0x1000, Bytes: 64, Tag: "a\xfe", Task: 1, Loc: loc})
	rec.OnDataOp(ompt.DataOpEvent{Kind: ompt.OpAlloc, Device: 0, Task: 1, Tag: "a\xfe", HostAddr: 0x1000, DevAddr: 0x9000, Bytes: 64, Loc: loc})
	rec.OnAccess(ompt.AccessEvent{Addr: 0x1000, Size: 8, Write: true, Device: ompt.HostDevice, Task: 1, Base: 0x1000, Tag: "a\xfe", Loc: loc})
	tr := rec.Trace()
	for _, s := range []string{loc.File, loc.Func, "gpu\x80", "a\xfe"} {
		if utf8.ValidString(s) {
			t.Fatalf("%q is valid UTF-8", s)
		}
	}
	return tr
}

// TestFramedRoundTripExact: for every DRACC program, every SPEC proxy,
// postencil-buggy and a trace with invalid UTF-8 in its strings, loading
// the framed encoding gives back exactly the recorded events.
func TestFramedRoundTripExact(t *testing.T) {
	traces := specTraces(t, omp.Config{NumThreads: 4, HostMem: 8 << 20, DeviceMem: 8 << 20}, 1)
	for _, b := range dracc.All() {
		traces[b.Name()] = recordDRACC(t, b)
	}
	traces["invalid-utf8"] = invalidUTF8Trace(t)
	for name, tr := range traces {
		tr := tr
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got, err := trace.Load(bytes.NewReader(framedBytes(t, tr)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Expand(), tr.Events) {
				t.Fatalf("framed round trip changed the events (%d loaded, %d recorded)", got.Len(), len(tr.Events))
			}
		})
	}
}

// TestV1FramedTraceLoadsAndReplays: a trace in the version-1 framed format
// (JSON payloads) still decodes, pulled or pushed, to the recorded events
// and replays to byte-identical reports under every tool.
func TestV1FramedTraceLoadsAndReplays(t *testing.T) {
	traces := specTraces(t, omp.Config{NumThreads: 2, ForceSync: true, HostMem: 8 << 20, DeviceMem: 8 << 20}, 1)
	for _, id := range []int{22, 23, 26} {
		traces[dracc.ByID(id).Name()] = recordDRACC(t, dracc.ByID(id))
	}
	for name, tr := range traces {
		tr := tr
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data := v1Framed(t, tr)
			got, err := trace.Load(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Expand(), tr.Events) {
				t.Fatal("version-1 trace loaded to different events")
			}
			pushed, err := pushAll(t, trace.NewPushDecoder(trace.Limits{}), data, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pushed, tr.Events) {
				t.Fatal("version-1 trace pushed to different events")
			}
			for _, toolName := range tools.Names() {
				assertSameReports(t, toolName, renderedReports(t, got, toolName), renderedReports(t, tr, toolName))
			}
		})
	}
}

// TestDecodeAllocationsPerEvent guards the framed decoders against
// per-event garbage: decoding the recorded Fig. 8 traces, pulled whole or
// pushed in chunks, allocates at most one object per ten events. It counts
// allocations, not time, so it holds on any host.
func TestDecodeAllocationsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerEvent = 0.1
	traces := specTraces(t, omp.Config{NumThreads: 2, ForceSync: true}, 2)
	delete(traces, "postencil-buggy")
	var inputs [][]byte
	events := 0
	for _, tr := range traces {
		inputs = append(inputs, framedBytes(t, tr))
		events += len(tr.Events)
	}
	load := testing.AllocsPerRun(3, func() {
		for _, data := range inputs {
			if _, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	push := testing.AllocsPerRun(3, func() {
		for _, data := range inputs {
			dec := trace.NewPushDecoder(trace.Limits{})
			for off := 0; off < len(data); off += 32 << 10 {
				if err := dec.Push(data[off:min(off+32<<10, len(data))], func(*trace.Event) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			if err := dec.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name   string
		allocs float64
	}{{"LoadLimited", load}, {"PushDecoder", push}} {
		perEvent := c.allocs / float64(events)
		t.Logf("%s: %.0f allocations over %d events (%.4f per event)", c.name, c.allocs, events, perEvent)
		if perEvent > maxPerEvent {
			t.Errorf("%s allocates %.3f objects per event, want at most %.1f", c.name, perEvent, maxPerEvent)
		}
	}
}
