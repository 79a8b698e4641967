// Package trace records the runtime's tool-interface event stream and
// replays it offline.
//
// A Recorder is itself an ompt.Tool: registered with a runtime, it captures
// every event in order. The trace can be serialized (as readable JSON lines
// or in the compact, checksummed framed format), loaded back, and replayed
// into any set of tools — so a single (possibly expensive) execution can be
// analyzed by ARBALEST, the race detector, and the baselines afterwards, or
// shipped elsewhere for inspection. Replaying the same trace is
// deterministic: the same reports come out every time, which the tests use
// to cross-check online and offline analysis.
//
// A trace has one in-memory form, the replay driver's: pointer-free access
// columns plus a short list of barrier events (batch.go). Decoders write
// straight into it and leave Trace.Events nil; a trace built in memory
// (the Recorder's, or a literal with Events) is compacted into it on first
// use. Len and Expand read a trace in either state. A trace decoded from
// an all-binary version-2 framed input also keeps the validated bytes it
// came from (Framed), which the job journal and the worker fetch pass on
// as they are instead of re-encoding the trace.
package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/ompt"
)

// EventKind tags a recorded event.
type EventKind string

// The recorded event kinds.
const (
	KindDeviceInit  EventKind = "device-init"
	KindTargetBegin EventKind = "target-begin"
	KindTargetEnd   EventKind = "target-end"
	KindDataOp      EventKind = "data-op"
	KindAccess      EventKind = "access"
	KindSync        EventKind = "sync"
	KindAlloc       EventKind = "alloc"
)

// Event is one recorded event. Exactly one payload field is set, selected by
// Kind. DeviceInit events drop the space handle (it is not serializable and
// not needed for replay).
type Event struct {
	Kind        EventKind         `json:"kind"`
	Seq         uint64            `json:"seq"`
	DeviceInit  *deviceInitRecord `json:"deviceInit,omitempty"`
	TargetBegin *ompt.TargetEvent `json:"targetBegin,omitempty"`
	TargetEnd   *ompt.TargetEvent `json:"targetEnd,omitempty"`
	DataOp      *ompt.DataOpEvent `json:"dataOp,omitempty"`
	Access      *ompt.AccessEvent `json:"access,omitempty"`
	Sync        *ompt.SyncEvent   `json:"sync,omitempty"`
	Alloc       *ompt.AllocEvent  `json:"alloc,omitempty"`
}

// deviceInitRecord is the serializable part of a DeviceInitEvent.
type deviceInitRecord struct {
	Device  ompt.DeviceID `json:"device"`
	Name    string        `json:"name"`
	Unified bool          `json:"unified"`
}

// Recorder captures the event stream in the order the event source
// delivers it, which for a live runtime is the one global order of its
// tool lock: one valid interleaving of the execution. Events are stored
// with Clock zero, since replay derives clocks from Seq. Len and Trace
// are safe to call while the program runs.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	seq    uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Name implements ompt.Tool.
func (r *Recorder) Name() string { return "trace-recorder" }

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.seq
	r.seq++
	r.events = append(r.events, e)
}

// OnDeviceInit implements ompt.Tool.
func (r *Recorder) OnDeviceInit(e ompt.DeviceInitEvent) {
	r.add(Event{Kind: KindDeviceInit, DeviceInit: &deviceInitRecord{
		Device: e.Device, Name: e.Name, Unified: e.Unified,
	}})
}

// OnTargetBegin implements ompt.Tool.
func (r *Recorder) OnTargetBegin(e ompt.TargetEvent) {
	r.add(Event{Kind: KindTargetBegin, TargetBegin: &e})
}

// OnTargetEnd implements ompt.Tool.
func (r *Recorder) OnTargetEnd(e ompt.TargetEvent) {
	r.add(Event{Kind: KindTargetEnd, TargetEnd: &e})
}

// OnDataOp implements ompt.Tool.
func (r *Recorder) OnDataOp(e ompt.DataOpEvent) {
	e.Clock = 0
	r.add(Event{Kind: KindDataOp, DataOp: &e})
}

// OnAccess implements ompt.Tool.
func (r *Recorder) OnAccess(e ompt.AccessEvent) {
	e.Clock = 0
	r.add(Event{Kind: KindAccess, Access: &e})
}

// OnSync implements ompt.Tool.
func (r *Recorder) OnSync(e ompt.SyncEvent) {
	r.add(Event{Kind: KindSync, Sync: &e})
}

// OnAlloc implements ompt.Tool.
func (r *Recorder) OnAlloc(e ompt.AllocEvent) {
	r.add(Event{Kind: KindAlloc, Alloc: &e})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Trace returns a snapshot of the recorded events.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return &Trace{Events: out}
}

var _ ompt.Tool = (*Recorder)(nil)

// Trace is a recorded event stream.
type Trace struct {
	// Events is the form a trace is built in, in memory: the Recorder's
	// snapshot, or a literal. It is compacted into the replay form on first
	// use and otherwise left as it is. Decoders leave it nil; read a
	// decoded trace through Len and Expand.
	Events []Event

	// cols is the one in-memory form (see accessCols): set by the decoder,
	// or built from Events on first use. Immutable once set, so replays of
	// one trace share it.
	cols atomic.Pointer[accessCols]
	// framed is the all-binary version-2 input the trace was decoded
	// from, if it was (Framed).
	framed []byte
}

// columns returns the trace's column form, compacting Events on first
// use. The build is idempotent and the result immutable, so concurrent
// replays of one trace race only on which identical column set gets
// cached.
func (t *Trace) columns() *accessCols {
	if c := t.cols.Load(); c != nil {
		return c
	}
	c := &accessCols{}
	c.compact(t.Events)
	t.cols.CompareAndSwap(nil, c)
	return t.cols.Load()
}

// decoded returns the column form of a decoded trace, nil for a trace
// built in memory.
func (t *Trace) decoded() *accessCols {
	if t.Events != nil {
		return nil
	}
	return t.cols.Load()
}

// Len returns the number of events in the trace.
func (t *Trace) Len() int {
	if c := t.decoded(); c != nil {
		return c.len()
	}
	return len(t.Events)
}

// Expand returns the trace's events in order: Events itself for a trace
// built in memory, else a fresh expansion of the decoded form, nil for an
// empty one. Expanding costs an Event and an access payload per access, so
// the replay and spool paths never do it. Callers must not modify the
// payloads, which a decoded trace shares.
func (t *Trace) Expand() []Event {
	c := t.decoded()
	if c == nil || c.len() == 0 {
		return t.Events
	}
	out := make([]Event, 0, c.len())
	accs := make([]ompt.AccessEvent, 0, len(c.addrs))
	_ = c.each(func(e *Event) error {
		ev := *e
		if e.Kind == KindAccess {
			accs = append(accs, *e.Access)
			ev.Access = &accs[len(accs)-1]
		}
		out = append(out, ev)
		return nil
	})
	return out
}

// each calls fn with every event of the trace in order. For a decoded
// trace the event an access arrives in is reused between calls.
func (t *Trace) each(fn func(*Event) error) error {
	if c := t.decoded(); c != nil {
		return c.each(fn)
	}
	for i := range t.Events {
		if err := fn(&t.Events[i]); err != nil {
			return err
		}
	}
	return nil
}

// Framed returns the framed input the trace was decoded from when that
// input was all version 2 (header and every payload), else nil: traces
// built in memory, JSON-lines and version-1 inputs keep no bytes. The
// bytes passed every check of the decode, so writing them out is
// equivalent to SaveFramed, without the encoding. Callers must not modify
// them.
func (t *Trace) Framed() []byte { return t.framed }

// Replay drives the trace through the given tools, in recorded order.
func (t *Trace) Replay(toolList ...ompt.Tool) error {
	return t.ReplayContext(context.Background(), toolList...)
}

// replayCheckInterval is how many events ReplayDurable dispatches between
// cancellation checks. Checking every event would put an atomic load on the
// hot path for no benefit; a few hundred events replay in microseconds.
const replayCheckInterval = 256

// ReplayContext drives the trace through the given tools, in recorded order,
// stopping early when ctx is canceled or its deadline passes. The returned
// error wraps ctx.Err() in that case, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work as expected. It is
// ReplayDurable without checkpoints, resume, or heartbeats.
func (t *Trace) ReplayContext(ctx context.Context, toolList ...ompt.Tool) error {
	_, err := t.ReplayDurable(ctx, DurableOptions{}, toolList...)
	return err
}

// dispatchEvent sends one barrier (non-access) event through the
// dispatcher; accesses go as column views. The switch's nil checks are the
// only per-event validation left on the replay hot path: full validation
// happens once, at load/decode time.
func dispatchEvent(d *ompt.Dispatcher, e *Event) error {
	switch e.Kind {
	case KindDeviceInit:
		if e.DeviceInit == nil {
			return payloadErr(e)
		}
		d.DeviceInit(ompt.DeviceInitEvent{
			Device: e.DeviceInit.Device, Name: e.DeviceInit.Name, Unified: e.DeviceInit.Unified,
		})
	case KindTargetBegin:
		if e.TargetBegin == nil {
			return payloadErr(e)
		}
		d.TargetBegin(*e.TargetBegin)
	case KindTargetEnd:
		if e.TargetEnd == nil {
			return payloadErr(e)
		}
		d.TargetEnd(*e.TargetEnd)
	case KindDataOp:
		if e.DataOp == nil {
			return payloadErr(e)
		}
		op := *e.DataOp
		op.Clock = e.Seq + 1
		d.DataOp(op)
	case KindSync:
		if e.Sync == nil {
			return payloadErr(e)
		}
		d.Sync(*e.Sync)
	case KindAlloc:
		if e.Alloc == nil {
			return payloadErr(e)
		}
		d.Alloc(*e.Alloc)
	case KindAccess: // an access with its payload is a column row, never a barrier
		return payloadErr(e)
	default:
		return fmt.Errorf("trace: event %d: unknown kind %q", e.Seq, e.Kind)
	}
	return nil
}

func payloadErr(e *Event) error {
	return fmt.Errorf("trace: event %d: missing payload for kind %q", e.Seq, e.Kind)
}

// validate checks that the event's kind is known and that its payload, and
// no other, is set.
func (e *Event) validate() error {
	ok := false
	switch e.Kind {
	case KindDeviceInit:
		ok = e.DeviceInit != nil
	case KindTargetBegin:
		ok = e.TargetBegin != nil
	case KindTargetEnd:
		ok = e.TargetEnd != nil
	case KindDataOp:
		ok = e.DataOp != nil
	case KindAccess:
		ok = e.Access != nil
	case KindSync:
		ok = e.Sync != nil
	case KindAlloc:
		ok = e.Alloc != nil
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	if !ok {
		return fmt.Errorf("missing payload for kind %q", e.Kind)
	}
	set := 0
	for _, p := range [...]bool{e.DeviceInit != nil, e.TargetBegin != nil, e.TargetEnd != nil,
		e.DataOp != nil, e.Access != nil, e.Sync != nil, e.Alloc != nil} {
		if p {
			set++
		}
	}
	if set > 1 {
		return fmt.Errorf("kind %q carries %d payloads", e.Kind, set)
	}
	return nil
}

// Save writes the trace as JSON lines.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := t.each(func(e *Event) error { return enc.Encode(e) }); err != nil {
		return err
	}
	return bw.Flush()
}

// Limits bounds what LoadLimited will accept. The zero value means
// "unlimited", preserving Load's historical behavior.
type Limits struct {
	// MaxEvents caps the number of events (0 = unlimited).
	MaxEvents int
	// MaxBytes caps the total input size in bytes (0 = unlimited).
	MaxBytes int64
}

// ErrTooManyEvents is wrapped by LoadLimited when the input exceeds
// Limits.MaxEvents.
var ErrTooManyEvents = fmt.Errorf("trace: too many events")

// ErrTooManyBytes is wrapped by LoadLimited when the input exceeds
// Limits.MaxBytes.
var ErrTooManyBytes = fmt.Errorf("trace: input too large")

// Load reads a trace in either encoding without size limits.
func Load(r io.Reader) (*Trace, error) {
	return LoadLimited(r, Limits{})
}

// LoadLimited reads a trace, validating each event as it is decoded. Both
// encodings are accepted: the decoder sniffs the first bytes and reads the
// framed format (SaveFramed's output, failures reported as
// *CorruptionError with a byte offset) or JSON lines (Save's output,
// failures reported with the offending line number; blank lines are
// skipped). Inputs exceeding the limits fail with ErrTooManyEvents or
// ErrTooManyBytes. It reads r to its end, or a little past MaxBytes, and
// decodes what it read as Decode does.
func LoadLimited(r io.Reader, lim Limits) (*Trace, error) {
	data, err := readInput(r, lim.MaxBytes)
	return decode(data, lim, err)
}

// readSlack is how far past Limits.MaxBytes LoadLimited reads. The frame
// header that crosses the limit then lies inside what was read, so an
// input longer than that fails inside it, exactly as it does in
// PushDecoder: with the corruption or limit error of the first frame that
// breaks a rule. (The frame that crosses MaxBytes+readSlack either has its
// header inside what was read, which puts its end past MaxBytes, or starts
// past MaxBytes+8, so the frame before it ended past MaxBytes.) A
// JSON-lines input that long fails its byte count.
const readSlack = 2 * frameHeaderSize

// readInput reads r to its end, or to maxBytes+readSlack bytes when
// maxBytes is positive. A reader that reports its length (a bytes.Reader,
// say) is read into storage of about its size. A read failure is returned
// with the bytes read before it.
func readInput(r io.Reader, maxBytes int64) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		n := int64(l.Len())
		if maxBytes > 0 {
			n = min(n, maxBytes+readSlack)
		}
		buf.Grow(int(n) + bytes.MinRead)
	}
	if maxBytes > 0 {
		r = io.LimitReader(r, maxBytes+readSlack)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Decode decodes a trace held in memory, in either encoding, with
// LoadLimited's checks and errors. A framed input that is version 2
// throughout is kept (Framed), without a copy unless data's capacity
// exceeds its length by more than an eighth, so the caller must not modify
// data afterwards.
func Decode(data []byte, lim Limits) (*Trace, error) {
	return decode(data, lim, nil)
}

// decode is Decode of an input whose read failed with readErr, after the
// bytes in data. Both encodings decode straight into the column form; a
// framed input sizes it first (countFrames), so its columns are allocated
// once and never grown or copied.
func decode(data []byte, lim Limits, readErr error) (*Trace, error) {
	c := &accessCols{}
	t := &Trace{}
	// A JSON line opens with '{' (or whitespace), so the magic is an
	// unambiguous discriminator. An input shorter than the magic goes to
	// the JSON-lines path, which handles empty and truncated input with
	// its historical errors.
	if !bytes.HasPrefix(data, traceMagic) {
		if err := decodeJSONLines(data, lim, c, readErr); err != nil {
			return nil, err
		}
	} else {
		c.alloc(countFrames(data, lim))
		d := &PushDecoder{lim: lim, cols: c}
		d.dec.sites = &c.table
		if err := d.Push(data, nil); err != nil {
			return nil, err
		}
		if readErr == nil && (!d.headerDone || len(d.tail) > 0) {
			readErr = io.ErrUnexpectedEOF
		}
		if readErr != nil {
			return nil, d.tornEnd(readErr)
		}
		if !d.dec.v1 {
			t.framed = data
			if cap(data)-len(data) > len(data)/8 {
				t.framed = bytes.Clone(data)
			}
		}
	}
	c.table.ords = nil // only building needs the site index
	t.cols.Store(c)
	return t, nil
}

// decodeJSONLines appends the events of a JSON-lines trace to c.
func decodeJSONLines(data []byte, lim Limits, c *accessCols, readErr error) error {
	var read int64
	for line := 1; ; line++ {
		raw := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			raw, data = data[:nl+1], data[nl+1:]
		} else {
			data = nil
		}
		read += int64(len(raw))
		if lim.MaxBytes > 0 && read > lim.MaxBytes {
			return fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, lim.MaxBytes)
		}
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			if lim.MaxEvents > 0 && c.len() >= lim.MaxEvents {
				return fmt.Errorf("%w: more than %d events (line %d)", ErrTooManyEvents, lim.MaxEvents, line)
			}
			var e Event
			if jerr := json.Unmarshal(trimmed, &e); jerr != nil {
				return fmt.Errorf("trace: line %d: %w", line, jerr)
			}
			if verr := e.validate(); verr != nil {
				return fmt.Errorf("trace: line %d: %w", line, verr)
			}
			c.add(&e)
		}
		if len(data) == 0 {
			if readErr != nil {
				return fmt.Errorf("trace: line %d: %w", line, readErr)
			}
			return nil
		}
	}
}
