package tools

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// Resume builds the named tool through NewWithOptions and, when ck is a
// checkpoint of that tool, restores it. NewRun starts every analysis with
// it, so every runner (the service's pool, a fleet worker, a stream session,
// `arbalest -replay-trace`) starts an analysis the same way. start is the
// event the run resumes at: ck.NextEvent after a restore, 0 otherwise. A
// checkpoint that does not restore is dropped for a fresh analyzer, because
// a failed restore may have half-applied and a checkpoint is an
// optimization, never a requirement; its error comes back as restoreErr for
// the caller to count and log. err is set only when the tool cannot be
// built at all.
func Resume(name string, opts Options, ck *trace.Checkpoint) (a Analyzer, start uint64, restoreErr, err error) {
	if a, err = NewWithOptions(name, opts); err != nil {
		return nil, 0, nil, err
	}
	cp, ok := a.(Checkpointer)
	if ck == nil || ck.Tool != name || !ok {
		return a, 0, nil, nil
	}
	if ck.NextEvent > ck.Events {
		restoreErr = fmt.Errorf("tools: checkpoint resumes at event %d of a %d-event trace", ck.NextEvent, ck.Events)
	} else if restoreErr = cp.RestoreState(ck.State); restoreErr == nil {
		return a, ck.NextEvent, nil, nil
	}
	if a, err = NewWithOptions(name, opts); err != nil {
		return nil, 0, nil, err
	}
	return a, 0, restoreErr, nil
}

// RunOptions configures NewRun. ID names the record (job or stream session)
// the run's checkpoints are of, and From is the checkpoint to resume from.
// Timeout, when positive, bounds Replay. Every CheckpointEvery events, at the
// next epoch boundary (trace.DurableOptions), a Checkpointer's run calls
// Checkpoint with take, which serializes the analyzer into the run's
// checkpoint record; an error from Checkpoint aborts the replay.
type RunOptions struct {
	Options
	ID              string
	From            *trace.Checkpoint
	Timeout         time.Duration
	CheckpointEvery uint64
	Checkpoint      func(take func() (*trace.Checkpoint, error)) error
	Progress        *trace.ReplayProgress
}

// Run is one analysis: the analyzer a runner drives, only through it, and
// the one replay driver that feeds it. A stream session decodes its events
// into the driver's window; Replay replays a whole trace. Start is the
// event the run resumed at, and RestoreErr why RunOptions.From did not
// restore.
type Run struct {
	Analyzer   Analyzer
	Driver     *trace.Replayer
	Start      uint64
	RestoreErr error

	tool string
	opts RunOptions
	// events is the length of the trace Replay replays, which checkpoints
	// carry; a stream's carry the events up to their boundary.
	events uint64
}

// NewRun builds the named tool, restores opts.From into it (Resume) and
// wires the driver at the event it resumed at. It fails when the tool
// cannot be built or its restore panics (ErrPanicked).
func NewRun(name string, opts RunOptions) (r *Run, err error) {
	defer confine(&err)
	r = &Run{tool: name, opts: opts}
	if r.Analyzer, r.Start, r.RestoreErr, err = Resume(name, opts.Options, opts.From); err != nil {
		return nil, err
	}
	dopts := trace.DurableOptions{StartEvent: r.Start, Progress: opts.Progress}
	if _, ok := r.Analyzer.(Checkpointer); ok && opts.Checkpoint != nil {
		dopts.CheckpointEvery, dopts.Checkpoint = opts.CheckpointEvery, r.checkpoint
	}
	r.Driver = trace.NewReplayer(dopts, r.Analyzer)
	return r, nil
}

// checkpoint is the driver's callback: it offers RunOptions.Checkpoint the
// record of the analyzer's state at boundary next, built when taken.
func (r *Run) checkpoint(next uint64) error {
	return r.opts.Checkpoint(func() (*trace.Checkpoint, error) {
		state, err := r.Analyzer.(Checkpointer).CheckpointState()
		if err != nil {
			return nil, err
		}
		return &trace.Checkpoint{
			JobID: r.opts.ID, Tool: r.tool, NextEvent: next, Events: max(r.events, next),
			Created: time.Now(), State: state,
		}, nil
	})
}

// Replay replays tr whole within the run's timeout, after the worker.replay
// fault point. An analyzer panic comes back as an error (ErrPanicked).
func (r *Run) Replay(ctx context.Context, tr *trace.Trace) (st trace.ReplayStats, err error) {
	defer confine(&err)
	if err := faultinject.Fire("worker.replay"); err != nil {
		return st, err
	}
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}
	r.events = uint64(tr.Len())
	return r.Driver.Replay(ctx, tr)
}

// Finish ends a clean run: it summarizes the analyzer, then releases its
// shadow state for the next run. A panic comes back as an error
// (ErrPanicked) and leaves the analyzer to the garbage collector.
func (r *Run) Finish() (sum *Summary, err error) {
	defer confine(&err)
	s := Summarize(r.Analyzer)
	if rel, ok := r.Analyzer.(Releaser); ok {
		rel.Release()
	}
	return s, nil
}

// ErrPanicked marks an analyzer panic a run confined. The error carries
// the panic value and a bounded fragment of the panicking goroutine's
// stack.
var ErrPanicked = errors.New("analyzer panicked")

// confine is the run's deferred recover: it turns a panic into *err. Defer
// it directly, so that it recovers the panic and the stack fragment still
// shows the panic site.
func confine(err *error) {
	r := recover()
	if r == nil {
		return
	}
	buf := make([]byte, 4096)
	frag := string(buf[:runtime.Stack(buf, false)])
	// Keep the panic site readable without shipping pages of runtime
	// frames into every job view.
	if lines := strings.SplitAfter(frag, "\n"); len(lines) > 12 {
		frag = strings.Join(lines[:12], "") + "\t...\n"
	}
	*err = fmt.Errorf("%w: %v\n%s", ErrPanicked, r, frag)
}
