package trace_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/trace"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDecodedTraceBytesPerEvent guards what a decoded trace holds while its
// job waits and runs: the recorded Fig. 8 traces (the six submit-fig8
// inputs), each loaded with LoadLimited and replayed once, retain at most
// 150 bytes of heap per event, their kept input bytes included. It counts
// bytes, not time, so it holds on any host.
func TestDecodedTraceBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerEvent = 150
	var inputs [][]byte
	events := 0
	for _, tr := range specTraces(t, omp.Config{NumThreads: 2, ForceSync: true}, 2) {
		inputs = append(inputs, framedBytes(t, tr))
		events += len(tr.Events)
	}
	decoded := make([]*trace.Trace, len(inputs))
	before := liveHeap()
	for i, data := range inputs {
		tr, err := trace.LoadLimited(bytes.NewReader(data), trace.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Replay(ompt.NopTool{}); err != nil {
			t.Fatal(err)
		}
		decoded[i] = tr
	}
	after := liveHeap()
	runtime.KeepAlive(decoded)
	runtime.KeepAlive(inputs)
	perEvent := float64(after-before) / float64(events)
	t.Logf("%d decoded traces retain %d bytes over %d events (%.0f per event)", len(decoded), after-before, events, perEvent)
	if perEvent > maxPerEvent {
		t.Errorf("decoded traces retain %.0f bytes per event, want at most %d", perEvent, maxPerEvent)
	}
}

// allocatedBytes returns the bytes fn allocates on the heap.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBytesPerEvent guards what decoding allocates, where
// TestDecodeAllocationsPerEvent counts objects: Decode of the six
// submit-fig8 inputs, each in a slice of exactly its length, allocates at
// most 64 bytes per event. The columns hold 57 bytes per access row and
// are sized before the decode, so nothing is grown or copied. It counts
// bytes, not time, so it holds on any host.
func TestDecodeBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxPerEvent = 64
	var inputs [][]byte
	events := 0
	for _, tr := range specTraces(t, omp.Config{NumThreads: 2, ForceSync: true}, 2) {
		data := framedBytes(t, tr)
		inputs = append(inputs, data[:len(data):len(data)])
		events += len(tr.Events)
	}
	decodeAll := func() {
		for _, data := range inputs {
			if _, err := trace.Decode(data, trace.Limits{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // warm up
	best := uint64(math.MaxUint64)
	for range 3 {
		best = min(best, allocatedBytes(decodeAll))
	}
	perEvent := float64(best) / float64(events)
	t.Logf("decoding %d inputs allocates %d bytes over %d events (%.1f per event)", len(inputs), best, events, perEvent)
	if perEvent > maxPerEvent {
		t.Errorf("decoding allocates %.1f bytes per event, want at most %d", perEvent, maxPerEvent)
	}
}

// TestMalformedTraceFailsCleanly: a hand-built trace whose events break the
// payload rules compacts without complaint and fails its replay at the
// first bad event, with the events before it dispatched and none after.
func TestMalformedTraceFailsCleanly(t *testing.T) {
	good := &ompt.AccessEvent{Addr: 0x1000, Size: 8, Device: ompt.HostDevice, Tag: "x"}
	for _, c := range []struct {
		bad  trace.Event
		want string
	}{
		{trace.Event{Kind: trace.KindAccess, Seq: 2}, "event 2: missing payload for kind \"access\""},
		{trace.Event{Kind: trace.KindSync, Seq: 2}, "event 2: missing payload for kind \"sync\""},
		{trace.Event{Kind: "bogus", Seq: 2, Access: good}, "event 2: unknown kind \"bogus\""},
	} {
		tr := &trace.Trace{Events: []trace.Event{
			{Kind: trace.KindAccess, Seq: 0, Access: good},
			{Kind: trace.KindSync, Seq: 1, Sync: &ompt.SyncEvent{Task: 1}},
			c.bad,
			{Kind: trace.KindAccess, Seq: 3, Access: good},
		}}
		var tool countingTool
		err := tr.Replay(&tool)
		if err == nil || err.Error() != "trace: "+c.want {
			t.Errorf("%s: replay error %v, want %q", c.bad.Kind, err, c.want)
		}
		if tool.accesses != 1 || tr.Len() != 4 {
			t.Errorf("%s: %d accesses dispatched of a %d-event trace, want 1 of 4", c.bad.Kind, tool.accesses, tr.Len())
		}
	}
}

// FuzzDecodeColumns holds the column decoder to the push decoder, the one
// frame loop's two sinks. For any input opening with the framed magic,
// LoadLimited accepts exactly when a PushDecoder fed the input in random
// chunk sizes does, fails with the same *CorruptionError offset or the same
// limit sentinel when both reject, and otherwise expands to exactly the
// events the PushDecoder emits. Bytes a decoded trace keeps equal the
// input.
func FuzzDecodeColumns(f *testing.F) {
	tr := fuzzSeedTrace()
	var framed bytes.Buffer
	if err := tr.SaveFramed(&framed); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes(), uint64(1))
	f.Add(framed.Bytes()[:framed.Len()-3], uint64(2)) // torn frame
	flipped := bytes.Clone(framed.Bytes())
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped, uint64(3))
	f.Add([]byte("ARBT\x02\x00\x00\x00"), uint64(4))
	f.Add(v1Framed(f, tr), uint64(5))
	// Version-1 frames after a version-2 header: decoded, but not kept.
	mixed := append([]byte("ARBT\x02\x00\x00\x00"), v1Framed(f, tr)[8:]...)
	f.Add(mixed, uint64(6))
	access := func(seq int, tag string) *trace.Event {
		return &trace.Event{Kind: trace.KindAccess, Seq: uint64(seq), Access: &ompt.AccessEvent{
			Addr: mem.Addr(0x1000 + 8*(seq%9)), Size: 8, Write: seq%3 == 0, Device: ompt.DeviceID(seq % 2),
			Task: 1, Tag: tag, Loc: ompt.SourceLoc{File: "k.c", Line: seq % 4},
		}}
	}
	long := trace.StreamHeader()
	for i := range 64 {
		var err error
		if long, err = trace.AppendEventFrame(long, access(i, []string{"a", "b", "c"}[i%3])); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(long, uint64(7)) // past the event limit below
	big, err := trace.AppendEventFrame(trace.StreamHeader(), access(0, string(make([]byte, 2000))))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(big, long[8:]...), uint64(8)) // past the byte limit below

	lim := trace.Limits{MaxEvents: 48, MaxBytes: 1536}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if !bytes.HasPrefix(data, []byte("ARBT")) {
			return
		}
		got, lerr := trace.LoadLimited(bytes.NewReader(data), lim)

		rng := rand.New(rand.NewPCG(seed, seed>>32))
		dec := trace.NewPushDecoder(lim)
		var pushed []trace.Event
		emit := func(e *trace.Event) error {
			pushed = append(pushed, *e)
			return nil
		}
		var perr error
		for off := 0; off < len(data) && perr == nil; {
			end := min(off+1+rng.IntN(96), len(data))
			perr = dec.Push(data[off:end], emit)
			off = end
		}
		if perr == nil {
			perr = dec.Finish()
		}

		if (lerr == nil) != (perr == nil) {
			t.Fatalf("LoadLimited says %v, PushDecoder says %v", lerr, perr)
		}
		if lerr != nil {
			var lce, pce *trace.CorruptionError
			switch {
			case errors.As(lerr, &lce):
				if !errors.As(perr, &pce) || pce.Offset != lce.Offset {
					t.Fatalf("LoadLimited: %v; PushDecoder: %v", lerr, perr)
				}
			case errors.Is(lerr, trace.ErrTooManyEvents), errors.Is(lerr, trace.ErrTooManyBytes):
				if !errors.Is(perr, errors.Unwrap(lerr)) {
					t.Fatalf("LoadLimited: %v; PushDecoder: %v", lerr, perr)
				}
			default:
				t.Fatalf("LoadLimited failed with neither corruption nor a limit: %v", lerr)
			}
			return
		}
		if events := got.Expand(); got.Len() != len(pushed) || (len(pushed) > 0 && !reflect.DeepEqual(events, pushed)) {
			t.Fatalf("LoadLimited expands to %d events, PushDecoder emitted %d, or they differ", got.Len(), len(pushed))
		}
		if kept := got.Framed(); kept != nil && !bytes.Equal(kept, data) {
			t.Fatalf("kept %d bytes that differ from the %d-byte input", len(kept), len(data))
		}
	})
}
