package trace

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/ompt"
)

// payloadSamples returns one event of every kind, with field values at the
// edges of their encodings: negative device IDs and lines, 64-bit addresses,
// the largest thread ID, every bool set, and strings holding invalid UTF-8.
func payloadSamples() []Event {
	loc := ompt.SourceLoc{File: "main\xff.c", Line: -3, Func: "f\xc3"}
	target := ompt.TargetEvent{Kind: ompt.KindTargetUpdate, Device: 1, Task: 7, Target: 8, Async: true, Loc: loc}
	return []Event{
		{Kind: KindDeviceInit, Seq: 0, DeviceInit: &deviceInitRecord{Device: 1, Name: "gpu0", Unified: true}},
		{Kind: KindTargetBegin, Seq: 1, TargetBegin: &target},
		{Kind: KindTargetEnd, Seq: 2, TargetEnd: &target},
		{Kind: KindDataOp, Seq: 3, DataOp: &ompt.DataOpEvent{
			Kind: ompt.OpTransferFromDevice, Device: math.MinInt32, Task: 7, Tag: "a\x80",
			HostAddr: 1 << 63, DevAddr: math.MaxUint64, Bytes: 4096, Implicit: true, Loc: loc,
		}},
		{Kind: KindAccess, Seq: 1 << 40, Access: &ompt.AccessEvent{
			Addr: math.MaxUint64 - 7, Size: 8, Write: true, Device: ompt.HostDevice,
			Task: math.MaxUint64, Thread: math.MaxUint32, Base: 0x1000, Tag: "a\x80", Loc: loc,
		}},
		{Kind: KindSync, Seq: 5, Sync: &ompt.SyncEvent{Kind: ompt.SyncDependence, Task: 7, Child: 9, Thread: 2, Loc: loc}},
		{Kind: KindAlloc, Seq: 6, Alloc: &ompt.AllocEvent{Free: true, Addr: 0x1000, Bytes: 64, Tag: "", Task: 1}},
	}
}

// TestPayloadRoundTrip: every kind encodes and decodes to a deeply equal
// event, invalid UTF-8 included.
func TestPayloadRoundTrip(t *testing.T) {
	var d payloadDecoder
	for _, want := range payloadSamples() {
		p, err := appendPayload(nil, &want)
		if err != nil {
			t.Fatalf("%s: encode: %v", want.Kind, err)
		}
		if p[0] == '{' {
			t.Fatalf("%s: binary payload opens with '{'", want.Kind)
		}
		var got Event
		if err := d.decodeFrame(0, p, &got); err != nil {
			t.Fatalf("%s: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip changed the event\ngot:  %+v\nwant: %+v", want.Kind, got, want)
		}
	}
}

// TestAppendPayloadRejectsInvalidEvents: the encoder refuses what the
// decoder would refuse, instead of writing an undecodable frame.
func TestAppendPayloadRejectsInvalidEvents(t *testing.T) {
	sync := &ompt.SyncEvent{}
	for _, e := range []Event{
		{Kind: "bogus", Sync: sync},
		{Kind: KindAccess},
		{Kind: KindSync, Sync: sync, Access: &ompt.AccessEvent{}},
	} {
		if _, err := appendPayload(nil, &e); err == nil {
			t.Errorf("encoded invalid event %+v", e)
		}
	}
}

// FuzzEventPayload hands arbitrary bytes to the payload decoder as one frame
// payload. FuzzDecodeTrace rarely gets this far, since a random mutation
// almost always breaks the frame's CRC first. The decoder must never panic,
// and an event it accepts must re-encode and re-decode to a deeply equal
// event.
func FuzzEventPayload(f *testing.F) {
	for _, e := range payloadSamples() {
		p, err := appendPayload(nil, &e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		legacy, err := json.Marshal(&e) // a version-1 payload
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacy)
	}
	f.Add([]byte{})
	f.Add([]byte{codeAccess, 0x80})
	f.Add([]byte{'{'})

	f.Fuzz(func(t *testing.T, p []byte) {
		var d payloadDecoder
		var e Event
		if err := d.decodeFrame(0, p, &e); err != nil {
			return
		}
		again, err := appendPayload(nil, &e)
		if err != nil {
			t.Fatalf("re-encode of accepted event failed: %v", err)
		}
		var e2 Event
		if err := d.decodeFrame(0, again, &e2); err != nil {
			t.Fatalf("re-decode of re-encoded event failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed the event\nfirst:  %+v\nsecond: %+v", e, e2)
		}
	})
}
