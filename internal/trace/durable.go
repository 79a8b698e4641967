// Durable replay: the one replay driver, with checkpoints and resume.
//
// Every replay goes through a Replayer: a whole trace (ReplayDurable, over
// the trace's columns) and a stream session's event windows
// (ReplayWindow) alike. It dispatches in recorded order on the calling
// goroutine, which respects every barrier and so meets the paper's
// Theorem 1 trivially. Two robustness hooks ride on it. First, periodic
// checkpoints: at configurable epoch boundaries the caller's Checkpoint
// callback fires with the index of the next undispatched event, so the
// analyzer state it serializes is exactly the state after that prefix.
// Boundaries follow checkpointDue, a rule over event indices only. Second,
// resume: StartEvent skips the already-analyzed prefix.
package trace

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/ompt"
)

// ReplayStats describes what one replay did.
type ReplayStats struct {
	// Events is the number of events dispatched.
	Events uint64
	// Accesses is the number of access events among them.
	Accesses uint64
	// Epochs is the number of barrier-delimited epochs that contained at
	// least one access.
	Epochs uint64
	// MaxEpochAccesses is the largest access count in any single epoch.
	MaxEpochAccesses uint64
}

// DurableOptions configures a Replayer and ReplayDurable. The zero value is
// a plain replay.
type DurableOptions struct {
	// StartEvent resumes the replay at this event index: events before it
	// are assumed already folded into the tools' state (via a checkpoint
	// restore). Must be an epoch boundary — the index a Checkpoint callback
	// reported.
	StartEvent uint64
	// CheckpointEvery requests a checkpoint roughly every this many events,
	// taken at the next epoch boundary. 0 disables checkpointing.
	CheckpointEvery uint64
	// Checkpoint is called at each checkpoint boundary with the index of the
	// first event NOT yet dispatched. A non-nil error aborts the replay.
	Checkpoint func(nextEvent uint64) error
}

// checkpointDue is the index-only checkpoint rule: boundary is the index
// just past an event of the given kind, last the boundary of the previous
// checkpoint. A checkpoint falls only after a non-access (barrier) event,
// once at least every events have passed since the last one; every == 0
// disables checkpoints. The rule never looks at wall clock, dispatch timing
// or how the events were split into windows, so every replay of a trace,
// batch or streamed, checkpoints at identical boundaries and a checkpoint
// restores anywhere.
func checkpointDue(kind EventKind, boundary, last, every uint64) bool {
	return kind != KindAccess && every > 0 && boundary-last >= every
}

// Replayer is the sequential replay driver. It owns the dispatcher and
// keeps the stream position and the latest checkpoint boundary between
// calls, so one value replays a whole trace (ReplayDurable) or a stream of
// event windows as they arrive (ReplayWindow) under one checkpoint rule.
// Calls must not overlap; successive calls may come from different
// goroutines when the caller orders them (a mutex), which keeps the
// ompt.Tool contract: one callback at a time, in one order.
type Replayer struct {
	d    ompt.Dispatcher
	opts DurableOptions
	// next is the position of the next event to dispatch, last the
	// boundary of the latest checkpoint.
	next, last uint64
	// win is the window PushWindow decodes a stream's events into and
	// ReplayWindow replays, its storage reused from window to window. Its
	// site table only grows: consumers cache their translation of a table
	// keyed on its first element and length, so an entry changed in place
	// would go unnoticed.
	win accessCols
}

// NewReplayer registers the tools and positions the driver at
// opts.StartEvent, which also counts as the latest checkpoint boundary.
func NewReplayer(opts DurableOptions, toolList ...ompt.Tool) *Replayer {
	r := &Replayer{opts: opts, next: opts.StartEvent, last: opts.StartEvent}
	for _, tool := range toolList {
		r.d.Register(tool)
	}
	return r
}

// ReplayDurable drives the trace through the given tools, in recorded
// order, on the calling goroutine, with optional checkpointing and resume.
// It stops early when ctx is canceled or its deadline passes; the returned
// error then wraps ctx.Err(). Stats cover only the events dispatched by
// this call: a resumed replay reports the suffix it replayed.
//
// Events are validated when a trace is loaded (LoadLimited) or decoded
// (PushDecoder); the hot loop here only rejects a barrier that carries no
// payload, so a hand-built malformed Trace still fails cleanly instead of
// panicking.
func (t *Trace) ReplayDurable(ctx context.Context, opts DurableOptions, toolList ...ompt.Tool) (ReplayStats, error) {
	return NewReplayer(opts, toolList...).Replay(ctx, t)
}

// Replay dispatches t's events from the driver's position on, as
// ReplayDurable does: a fresh driver replays t whole, one positioned at a
// checkpoint resumes it there.
func (r *Replayer) Replay(ctx context.Context, t *Trace) (ReplayStats, error) {
	c := t.columns()
	if r.next > uint64(c.len()) {
		return ReplayStats{}, fmt.Errorf("trace: resume start %d is beyond trace end %d", r.next, c.len())
	}
	st, i, err := r.replay(ctx, c, int(r.next), 0)
	r.next = uint64(i)
	return st, err
}

// WindowLen returns how many events the driver's window holds: decoded into
// it by PushWindow and not yet replayed.
func (r *Replayer) WindowLen() int { return r.win.len() }

// ReplayWindow dispatches the window's events as the driver's next
// positions, then empties the window: after n events dispatched so far
// (StartEvent included), the window's k-th event is event n+k of the
// stream. Checkpoints fall exactly where ReplayDurable over the whole
// stream would put them, however the stream is split into windows. Stats
// count the events this call dispatched.
func (r *Replayer) ReplayWindow(ctx context.Context) (ReplayStats, error) {
	base := r.next
	st, i, err := r.replay(ctx, &r.win, 0, base)
	r.next = base + uint64(i)
	r.win.reset()
	return st, err
}

// ClearWindow empties the window without replaying it.
func (r *Replayer) ClearWindow() { r.win.reset() }

// replay is the dispatch loop: it dispatches the events of c from position
// from on, where position i is stream position base+i, and returns the
// position of the first event it did not dispatch. It stays a function of
// its own, reaching the dispatcher through a pointer: folded into its
// caller, the Fig. 8 replay cells measured about 20% slower.
func (r *Replayer) replay(ctx context.Context, c *accessCols, from int, base uint64) (ReplayStats, int, error) {
	var st ReplayStats
	d, opts := &r.d, &r.opts
	n := c.len()
	// k is the next barrier to dispatch; every position before it that is
	// not a barrier is an access row.
	k, _ := slices.BinarySearchFunc(c.barriers, from, func(b barrier, pos int) int { return cmp.Compare(b.pos, pos) })
	i := from
	// Runs of consecutive accesses dispatch as zero-copy views of the
	// columns; runs end at barrier events, so checkpoint boundaries stay
	// exact (all events before the boundary dispatched, none after).
	sinceCheck := replayCheckInterval // check ctx before the first event
	for i < n {
		if sinceCheck >= replayCheckInterval {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return st, i, fmt.Errorf("trace: replay canceled at event %d: %w", base+uint64(i), err)
			}
		}
		end := n
		if k < len(c.barriers) {
			end = c.barriers[k].pos
		}
		if run := end - i; run > 0 {
			lo := i - k
			for off := 0; off < run; {
				chunk := min(run-off, accessBatchCap)
				b := c.view(lo+off, lo+off+chunk)
				d.AccessBatch(&b)
				off += chunk
				sinceCheck += chunk
				if sinceCheck >= replayCheckInterval && off < run {
					sinceCheck = 0
					if err := ctx.Err(); err != nil {
						return st, i + off, fmt.Errorf("trace: replay canceled at event %d: %w", base+uint64(i+off), err)
					}
				}
			}
			epoch := uint64(run)
			st.Accesses += epoch
			st.Events += epoch
			st.Epochs++
			if epoch > st.MaxEpochAccesses {
				st.MaxEpochAccesses = epoch
			}
			i = end
			continue
		}
		e := &c.barriers[k].ev
		if err := dispatchEvent(d, e); err != nil {
			return st, i, err
		}
		st.Events++
		sinceCheck++
		i++
		k++
		if boundary := base + uint64(i); opts.Checkpoint != nil && checkpointDue(e.Kind, boundary, r.last, opts.CheckpointEvery) {
			if err := opts.Checkpoint(boundary); err != nil {
				return st, i, err
			}
			r.last = boundary
		}
	}
	return st, i, nil
}
