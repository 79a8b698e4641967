// Durable replay: the one replay driver, with checkpoints and resume.
//
// Every replay goes through ReplayDurable. It dispatches the trace on the
// calling goroutine in recorded order, which respects every barrier and so
// meets the paper's Theorem 1 trivially. Two robustness hooks ride on it.
// First, periodic checkpoints: at configurable epoch boundaries the caller's
// Checkpoint callback fires with the index of the next undispatched event,
// so the analyzer state it serializes is exactly the state after that
// prefix. Boundaries follow CheckpointDue, a rule over event indices only.
// Second, resume: StartEvent skips the already-analyzed prefix.
//
// Progress heartbeats (ReplayProgress) let a watchdog distinguish a slow
// replay from a wedged one: a monotone Sum() that stops advancing means no
// event has been dispatched.
package trace

import (
	"context"
	"fmt"
	"sync/atomic"

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

// ReplayProgress is a monotone heartbeat counter shared between a replay
// and a watchdog. Its methods are safe for concurrent use and nil-safe (a
// nil progress records nothing).
type ReplayProgress struct {
	events atomic.Uint64
}

// NewReplayProgress returns a zeroed progress tracker.
func NewReplayProgress() *ReplayProgress { return &ReplayProgress{} }

// Add records n dispatched events.
func (p *ReplayProgress) Add(n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.events.Add(n)
}

// Sum returns the heartbeat count. A watchdog samples it; two equal samples
// an interval apart mean no event was dispatched in between.
func (p *ReplayProgress) Sum() uint64 {
	if p == nil {
		return 0
	}
	return p.events.Load()
}

// DurableOptions configures ReplayDurable. The zero value is a plain replay.
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
	// Progress, when non-nil, receives heartbeats as events are dispatched.
	Progress *ReplayProgress
}

// CheckpointDue is the index-only checkpoint rule shared by durable replay
// and stream sessions: boundary is the index just past an event of the
// given kind, last the boundary of the previous checkpoint. A checkpoint
// falls only after a non-access (barrier) event, once at least every events
// have passed since the last one; every == 0 disables checkpoints. The rule
// never looks at wall clock or dispatch timing, so every replay of a trace
// checkpoints at identical boundaries and a checkpoint restores anywhere.
func CheckpointDue(kind EventKind, boundary, last, every uint64) bool {
	return kind != KindAccess && every > 0 && boundary-last >= every
}

// ReplayDurable drives the trace through the given tools, in recorded
// order, on the calling goroutine, with optional checkpointing, resume, and
// progress heartbeats. It stops early when ctx is canceled or its deadline
// passes; the returned error then wraps ctx.Err(). Stats cover only the
// events dispatched by this call: a resumed replay reports the suffix it
// replayed.
//
// Events are validated when a trace is loaded (LoadLimited) or decoded
// (Stream); the hot loop here only carries a nil-payload guard, so a
// hand-built malformed Trace still fails cleanly instead of panicking.
func (t *Trace) ReplayDurable(ctx context.Context, opts DurableOptions, toolList ...ompt.Tool) (ReplayStats, error) {
	if opts.StartEvent > uint64(len(t.Events)) {
		return ReplayStats{}, fmt.Errorf("trace: resume start %d is beyond trace end %d", opts.StartEvent, len(t.Events))
	}
	var d ompt.Dispatcher
	for _, tool := range toolList {
		d.Register(tool)
	}
	// One goroutine delivers every callback here, so modal tools may drop
	// their synchronization and enable single-threaded accelerators.
	d.SetDispatchMode(ompt.DispatchSequential)
	return t.replay(ctx, &d, opts)
}

// replay is ReplayDurable's dispatch loop. It stays a function of its own,
// reaching the dispatcher through a pointer: folded into ReplayDurable, the
// Fig. 8 replay cells measured about 20% slower.
func (t *Trace) replay(ctx context.Context, d *ompt.Dispatcher, opts DurableOptions) (ReplayStats, error) {
	var st ReplayStats
	events := t.Events
	last := opts.StartEvent
	// Runs of consecutive accesses dispatch as zero-copy views of the
	// trace's decode-once columns; runs end at barrier events, so
	// checkpoint boundaries stay exact (all events before the boundary
	// dispatched, none after).
	cols := t.columns()
	sinceCheck := replayCheckInterval // check ctx before the first event
	for i := int(opts.StartEvent); i < len(events); {
		if sinceCheck >= replayCheckInterval {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return st, fmt.Errorf("trace: replay canceled at event %d of %d: %w", i, len(events), err)
			}
		}
		e := &events[i]
		if e.Kind == KindAccess {
			if e.Access == nil {
				return st, payloadErr(e)
			}
			j := i + 1
			for j < len(events) && events[j].Kind == KindAccess && events[j].Access != nil {
				j++
			}
			lo := cols.pos[i]
			for off, run := 0, j-i; off < run; {
				chunk := run - off
				if chunk > accessBatchCap {
					chunk = accessBatchCap
				}
				b := cols.view(lo+off, lo+off+chunk)
				d.AccessBatch(&b)
				opts.Progress.Add(uint64(chunk))
				off += chunk
				sinceCheck += chunk
				if sinceCheck >= replayCheckInterval && off < run {
					sinceCheck = 0
					if err := ctx.Err(); err != nil {
						return st, fmt.Errorf("trace: replay canceled at event %d of %d: %w", i+off, len(events), err)
					}
				}
			}
			epoch := uint64(j - i)
			st.Accesses += epoch
			st.Events += epoch
			st.Epochs++
			if epoch > st.MaxEpochAccesses {
				st.MaxEpochAccesses = epoch
			}
			i = j
			continue
		}
		if err := dispatchEvent(d, e); err != nil {
			return st, err
		}
		st.Events++
		opts.Progress.Add(1)
		sinceCheck++
		i++
		if opts.Checkpoint != nil && CheckpointDue(e.Kind, uint64(i), last, opts.CheckpointEvery) {
			if err := opts.Checkpoint(uint64(i)); err != nil {
				return st, err
			}
			last = uint64(i)
		}
	}
	return st, nil
}
