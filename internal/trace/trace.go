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
	Events []Event

	// cols caches the decode-once columnar view of the access events (see
	// accessCols). Built lazily on the first replay; replays of one trace
	// then dispatch zero-copy slices of it.
	cols atomic.Pointer[accessCols]
}

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
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			return err
		}
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
// ErrTooManyBytes.
func LoadLimited(r io.Reader, lim Limits) (*Trace, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	t := &Trace{}
	var err error
	// A JSON line opens with '{' (or whitespace), so the magic is an
	// unambiguous discriminator. Peek errors (including an input shorter
	// than the magic) fall through to the JSON-lines path, which handles
	// empty and truncated input with its historical errors.
	if head, perr := br.Peek(len(traceMagic)); perr == nil && bytes.Equal(head, traceMagic) {
		err = t.decodeFramed(br, lim)
	} else {
		err = t.decodeJSONLines(br, lim)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// decodeJSONLines appends the events of a JSON-lines trace to t.Events.
func (t *Trace) decodeJSONLines(br *bufio.Reader, lim Limits) error {
	var read int64
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		read += int64(len(raw))
		if lim.MaxBytes > 0 && read > lim.MaxBytes {
			return fmt.Errorf("%w: more than %d bytes", ErrTooManyBytes, lim.MaxBytes)
		}
		if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 {
			if lim.MaxEvents > 0 && len(t.Events) >= lim.MaxEvents {
				return fmt.Errorf("%w: more than %d events (line %d)", ErrTooManyEvents, lim.MaxEvents, line)
			}
			var e Event
			if jerr := json.Unmarshal(trimmed, &e); jerr != nil {
				return fmt.Errorf("trace: line %d: %w", line, jerr)
			}
			if verr := e.validate(); verr != nil {
				return fmt.Errorf("trace: line %d: %w", line, verr)
			}
			t.Events = append(t.Events, e)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
}
