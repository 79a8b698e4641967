package tools

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/trace"
)

// Resume builds the named tool through NewWithOptions and, when ck is a
// checkpoint of that tool, restores it, so every runner (the service's
// pool, a fleet worker, a recovered stream session) starts an analysis the
// same way. start is the event the run resumes at: ck.NextEvent after a
// restore, 0 otherwise. A checkpoint that does not restore is dropped for a
// fresh analyzer, because a failed restore may have half-applied and a
// checkpoint is an optimization, never a requirement; its error comes back
// as restoreErr for the caller to count and log. err is set only when the
// tool cannot be built at all.
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

// PanicError turns a value recovered from an analyzer panic into the job's
// error: the panic value and a bounded fragment of the panicking
// goroutine's stack. Call it from the deferred recover itself, so the
// fragment still shows the panic site.
func PanicError(r any) error {
	buf := make([]byte, 4096)
	frag := string(buf[:runtime.Stack(buf, false)])
	// Keep the panic site readable without shipping pages of runtime
	// frames into every job view.
	if lines := strings.SplitAfter(frag, "\n"); len(lines) > 12 {
		frag = strings.Join(lines[:12], "") + "\t...\n"
	}
	return fmt.Errorf("analyzer panicked: %v\n%s", r, frag)
}
