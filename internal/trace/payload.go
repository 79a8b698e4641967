// The per-event frame payload of the framed format: a compact binary
// encoding of one Event (version 2), with version-1 JSON payloads still
// decoded. See frame.go for the field order.
package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// Kind codes open a version-2 payload. None of them is '{', the first byte
// of every version-1 (JSON) payload, so one byte tells the two apart.
const (
	codeDeviceInit byte = 1 + iota
	codeTargetBegin
	codeTargetEnd
	codeDataOp
	codeAccess
	codeSync
	codeAlloc
)

// The causes of the commonest malformed payloads.
var (
	errTruncated = errors.New("truncated payload")
	errVarint    = errors.New("truncated or overflowing varint")
)

// maxInterned bounds a decoder's string table and its cache of site bytes.
// Traces name a few dozen variables and source files; past the bound,
// strings are still decoded, just not shared, and new sites are decoded
// from their bytes each time.
const maxInterned = 4096

// appendPayload appends e's version-2 payload to b.
func appendPayload(b []byte, e *Event) ([]byte, error) {
	if err := e.validate(); err != nil {
		return b, fmt.Errorf("trace: event %d: %w", e.Seq, err)
	}
	switch e.Kind {
	case KindAccess:
		a := e.Access
		b = binary.AppendUvarint(append(b, codeAccess), e.Seq)
		b = binary.AppendUvarint(b, uint64(a.Addr))
		b = binary.AppendUvarint(b, a.Size)
		b = appendBool(b, a.Write)
		b = binary.AppendVarint(b, int64(a.Device))
		b = binary.AppendUvarint(b, uint64(a.Task))
		b = binary.AppendUvarint(b, uint64(a.Thread))
		b = binary.AppendUvarint(b, uint64(a.Base))
		b = appendString(b, a.Tag)
		return appendLoc(b, &a.Loc), nil
	case KindDeviceInit:
		v := e.DeviceInit
		b = binary.AppendUvarint(append(b, codeDeviceInit), e.Seq)
		b = binary.AppendVarint(b, int64(v.Device))
		b = appendString(b, v.Name)
		return appendBool(b, v.Unified), nil
	case KindTargetBegin, KindTargetEnd:
		v, code := e.TargetBegin, codeTargetBegin
		if e.Kind == KindTargetEnd {
			v, code = e.TargetEnd, codeTargetEnd
		}
		b = binary.AppendUvarint(append(b, code), e.Seq)
		b = append(b, byte(v.Kind))
		b = binary.AppendVarint(b, int64(v.Device))
		b = binary.AppendUvarint(b, uint64(v.Task))
		b = binary.AppendUvarint(b, uint64(v.Target))
		b = appendBool(b, v.Async)
		return appendLoc(b, &v.Loc), nil
	case KindDataOp:
		v := e.DataOp
		b = binary.AppendUvarint(append(b, codeDataOp), e.Seq)
		b = append(b, byte(v.Kind))
		b = binary.AppendVarint(b, int64(v.Device))
		b = binary.AppendUvarint(b, uint64(v.Task))
		b = appendString(b, v.Tag)
		b = binary.AppendUvarint(b, uint64(v.HostAddr))
		b = binary.AppendUvarint(b, uint64(v.DevAddr))
		b = binary.AppendUvarint(b, v.Bytes)
		b = appendBool(b, v.Implicit)
		return appendLoc(b, &v.Loc), nil
	case KindSync:
		v := e.Sync
		b = binary.AppendUvarint(append(b, codeSync), e.Seq)
		b = append(b, byte(v.Kind))
		b = binary.AppendUvarint(b, uint64(v.Task))
		b = binary.AppendUvarint(b, uint64(v.Child))
		b = binary.AppendUvarint(b, uint64(v.Thread))
		return appendLoc(b, &v.Loc), nil
	default: // KindAlloc; validate rejected every other kind
		v := e.Alloc
		b = binary.AppendUvarint(append(b, codeAlloc), e.Seq)
		b = appendBool(b, v.Free)
		b = binary.AppendUvarint(b, uint64(v.Addr))
		b = binary.AppendUvarint(b, v.Bytes)
		b = appendString(b, v.Tag)
		b = binary.AppendUvarint(b, uint64(v.Task))
		return appendLoc(b, &v.Loc), nil
	}
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendLoc(b []byte, l *ompt.SourceLoc) []byte {
	b = appendString(b, l.File)
	b = binary.AppendVarint(b, int64(l.Line))
	return appendString(b, l.Func)
}

// payloadDecoder decodes frame payloads for one decode pass (a Decode or
// one PushDecoder). A binary access decodes to a row, never an Event,
// except for a PushDecoder's emit (decodeFrame). It interns strings, so a
// trace's few distinct tags and file names are allocated once, interns
// each access's site in a site table, and carves payload structs from
// slabs, so decoding allocates per slab rather than per event. Decoded
// events never alias the payload bytes, so callers reuse their frame
// buffers.
type payloadDecoder struct {
	strs map[string]string
	// recent caches interned strings in front of strs, direct-mapped by
	// length and last byte: consecutive events mostly repeat a handful of
	// tags and file names, and comparing bytes is cheaper than hashing them.
	recent [16]string
	// sites is the site table accesses are interned into: the columns' own
	// when decoding into them, else one of the decoder's.
	sites *siteTable
	// raw maps the encoded site fields that end an access payload (tag,
	// then loc) to their site ordinal, so a site already seen is found by
	// its bytes without decoding its strings; last and lastOrd memo the
	// previous access's, which a loop body's accesses mostly repeat.
	raw     map[string]uint32
	last    []byte
	lastOrd uint32
	// v1 is set once a version-1 header or JSON payload was decoded: such
	// an input is not kept as bytes.
	v1      bool
	inits   slab[deviceInitRecord]
	targets slab[ompt.TargetEvent]
	dataOps slab[ompt.DataOpEvent]
	access  slab[ompt.AccessEvent]
	syncs   slab[ompt.SyncEvent]
	allocs  slab[ompt.AllocEvent]
}

// decodeFrame decodes the payload of the frame at byte off into e, the
// event a PushDecoder emits: an access's payload is carved from a slab, so
// it stays valid.
func (d *payloadDecoder) decodeFrame(off int64, p []byte, e *Event) error {
	var r row
	isRow, err := d.decode(off, p, e, &r)
	if isRow {
		v := d.access.get()
		*v = ompt.AccessEvent{
			Addr: r.addr, Size: r.size, Write: r.write, Device: r.device, Task: r.task,
			Thread: r.thread, Base: r.base, Tag: d.sites.tags[r.site], Loc: d.sites.locs[r.site],
		}
		*e = Event{Kind: KindAccess, Seq: r.clock - 1, Access: v}
	}
	return err
}

// decode decodes and validates the payload of the frame at byte off: a
// version-1 JSON object when p opens with '{', the version-2 binary
// encoding otherwise. A binary access fills r, its site interned, and e
// with its sequence number only, and reports true; every other event fills
// e. Every binary field is range-checked and p must be consumed exactly.
// Failure is the *CorruptionError both framed decoders return.
func (d *payloadDecoder) decode(off int64, p []byte, e *Event, r *row) (bool, error) {
	if d.sites == nil {
		d.sites = &siteTable{}
	}
	if len(p) > 0 && p[0] == '{' {
		d.v1 = true
		// A separate Event: unmarshaling into e would move every decoded
		// event to the heap, binary ones too.
		var v Event
		if err := json.Unmarshal(p, &v); err != nil {
			return false, &CorruptionError{Offset: off, Reason: "frame payload is not a valid event", Err: err}
		}
		if err := v.validate(); err != nil {
			return false, &CorruptionError{Offset: off, Reason: "frame payload fails event validation", Err: err}
		}
		*e = v
		return false, nil
	}
	isRow, err := d.decodeBinary(p, e, r)
	if err != nil {
		return false, &CorruptionError{Offset: off, Reason: "frame payload is not a valid event", Err: err}
	}
	return isRow, nil
}

// decodeBinary decodes one version-2 payload, as decode describes.
func (d *payloadDecoder) decodeBinary(p []byte, e *Event, a *row) (bool, error) {
	r := payloadReader{b: p, d: d}
	code := r.byte()
	seq := r.uvarint()
	*e = Event{Seq: seq}
	switch code {
	case codeAccess:
		*a = row{
			addr: mem.Addr(r.uvarint()), size: r.uvarint(), write: r.bool(),
			device: r.device(), task: ompt.TaskID(r.uvarint()), thread: r.thread(),
			base: mem.Addr(r.uvarint()), clock: seq + 1,
		}
		if r.err == nil {
			a.site = d.site(&r)
		}
	case codeDeviceInit:
		v := d.inits.get()
		*v = deviceInitRecord{Device: r.device(), Name: r.str(), Unified: r.bool()}
		e.Kind, e.DeviceInit = KindDeviceInit, v
	case codeTargetBegin, codeTargetEnd:
		v := d.targets.get()
		*v = ompt.TargetEvent{
			Kind: ompt.TargetKind(r.byte()), Device: r.device(), Task: ompt.TaskID(r.uvarint()),
			Target: ompt.TaskID(r.uvarint()), Async: r.bool(), Loc: r.loc(),
		}
		if code == codeTargetBegin {
			e.Kind, e.TargetBegin = KindTargetBegin, v
		} else {
			e.Kind, e.TargetEnd = KindTargetEnd, v
		}
	case codeDataOp:
		v := d.dataOps.get()
		*v = ompt.DataOpEvent{
			Kind: ompt.DataOpKind(r.byte()), Device: r.device(), Task: ompt.TaskID(r.uvarint()),
			Tag: r.str(), HostAddr: mem.Addr(r.uvarint()), DevAddr: mem.Addr(r.uvarint()),
			Bytes: r.uvarint(), Implicit: r.bool(), Loc: r.loc(),
		}
		e.Kind, e.DataOp = KindDataOp, v
	case codeSync:
		v := d.syncs.get()
		*v = ompt.SyncEvent{
			Kind: ompt.SyncKind(r.byte()), Task: ompt.TaskID(r.uvarint()),
			Child: ompt.TaskID(r.uvarint()), Thread: r.thread(), Loc: r.loc(),
		}
		e.Kind, e.Sync = KindSync, v
	case codeAlloc:
		v := d.allocs.get()
		*v = ompt.AllocEvent{
			Free: r.bool(), Addr: mem.Addr(r.uvarint()), Bytes: r.uvarint(),
			Tag: r.str(), Task: ompt.TaskID(r.uvarint()), Loc: r.loc(),
		}
		e.Kind, e.Alloc = KindAlloc, v
	default:
		if r.err == nil {
			return false, fmt.Errorf("unknown kind code %d", code)
		}
	}
	if r.err != nil {
		return false, r.err
	}
	if len(r.b) > 0 {
		return false, fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return code == codeAccess, nil
}

// site interns the site fields that end an access payload, tag then loc,
// and consumes them. Equal bytes decode to an equal site, so bytes seen
// before (and so already checked) are looked up rather than decoded; new
// bytes are decoded, checked for exact consumption, and remembered.
func (d *payloadDecoder) site(r *payloadReader) uint32 {
	rest := r.b
	if len(d.last) > 0 && bytes.Equal(rest, d.last) {
		r.b = nil
		return d.lastOrd
	}
	ord, ok := d.raw[string(rest)] // the lookup does not allocate
	if ok {
		r.b = nil
	} else {
		tag, loc := r.str(), r.loc()
		if r.err != nil || len(r.b) > 0 {
			return 0 // reported by decodeBinary
		}
		ord = d.sites.intern(tag, loc)
		if d.raw == nil {
			d.raw = make(map[string]uint32)
		}
		if len(d.raw) < maxInterned {
			d.raw[string(rest)] = ord
		}
	}
	d.last = append(d.last[:0], rest...)
	d.lastOrd = ord
	return ord
}

// intern returns b as a string, shared with every earlier equal string.
func (d *payloadDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := &d.recent[(len(b)*7+int(b[len(b)-1]))%len(d.recent)]
	if *slot == string(b) { // neither comparison nor lookup allocates
		return *slot
	}
	s, ok := d.strs[string(b)]
	if !ok {
		s = string(b)
		if d.strs == nil {
			d.strs = make(map[string]string)
		}
		if len(d.strs) < maxInterned {
			d.strs[s] = s
		}
	}
	*slot = s
	return s
}

// payloadReader reads the fields of one version-2 payload. The first
// failure sticks: later reads return zero values and err keeps the cause.
type payloadReader struct {
	b   []byte
	d   *payloadDecoder
	err error
}

func (r *payloadReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *payloadReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *payloadReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zig-zag varint that must fit an int.
func (r *payloadReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errVarint)
		return 0
	}
	r.b = r.b[n:]
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("value %d overflows int", v))
		return 0
	}
	return int(v)
}

func (r *payloadReader) device() ompt.DeviceID { return ompt.DeviceID(r.int()) }

func (r *payloadReader) bool() bool {
	switch c := r.byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("bool byte %d", c))
		return false
	}
}

func (r *payloadReader) thread() ompt.ThreadID {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail(fmt.Errorf("thread id %d exceeds 32 bits", v))
		return 0
	}
	return ompt.ThreadID(v)
}

func (r *payloadReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(fmt.Errorf("string length %d past payload end (%d bytes left)", n, len(r.b)))
		return ""
	}
	s := r.d.intern(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *payloadReader) loc() ompt.SourceLoc {
	return ompt.SourceLoc{File: r.str(), Line: r.int(), Func: r.str()}
}

// slab hands out pointers to fresh Ts, allocated in chunks that grow from
// 16 to 256 elements: a long decode allocates per chunk, not per event, and
// a kind seen once costs a short chunk. Elements are never reused, so a
// caller may keep what it was handed. Barrier payloads come from slabs;
// access payloads only for a PushDecoder's emit, since Decode and
// PushWindow decode accesses into rows.
type slab[T any] struct {
	free []T
	size int
}

func (s *slab[T]) get() *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, 16), 256)
		s.free = make([]T, s.size)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}
