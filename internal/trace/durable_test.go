package trace_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dracc"
	"repro/internal/mem"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/tools"
	"repro/internal/trace"
)

// recordDRACC records benchmark b on a multi-threaded runtime with the same
// forced-synchronous configuration an online ARBALEST run uses.
func recordDRACC(t *testing.T, b *dracc.Benchmark) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumThreads: 4, ForceSync: true}, rec)
	_ = rt.Run(func(c *omp.Context) error {
		b.Run(c)
		return nil
	})
	return rec.Trace()
}

// renderedReports replays tr into a fresh instance of the named tool and
// returns every report rendered to its full string form (kind, variable,
// location, detail) in sink order.
func renderedReports(t *testing.T, tr *trace.Trace, toolName string) []string {
	t.Helper()
	a, err := tools.New(toolName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{}, a); err != nil {
		t.Fatal(err)
	}
	return render(a)
}

// render returns a's reports rendered to strings, in sink order.
func render(a tools.Analyzer) []string {
	reports := a.Sink().Reports()
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.String()
	}
	return out
}

// savedCkpt is one checkpoint captured during a durable replay: the resume
// index plus the serialized analyzer state at that boundary.
type savedCkpt struct {
	next  uint64
	state json.RawMessage
}

// collectCheckpoints replays tr through a fresh arbalest analyzer with
// checkpointing every `every` events and returns every checkpoint taken plus
// the run's rendered reports.
func collectCheckpoints(t *testing.T, tr *trace.Trace, every uint64) ([]savedCkpt, []string) {
	t.Helper()
	a, err := tools.New("arbalest")
	if err != nil {
		t.Fatal(err)
	}
	ck, ok := a.(tools.Checkpointer)
	if !ok {
		t.Fatal("arbalest analyzer does not implement tools.Checkpointer")
	}
	var ckpts []savedCkpt
	opts := trace.DurableOptions{
		CheckpointEvery: every,
		Checkpoint: func(next uint64) error {
			raw, err := ck.CheckpointState()
			if err != nil {
				return err
			}
			ckpts = append(ckpts, savedCkpt{next: next, state: json.RawMessage(append([]byte(nil), raw...))})
			return nil
		},
	}
	if _, err := tr.ReplayDurable(context.Background(), opts, a); err != nil {
		t.Fatalf("every=%d: %v", every, err)
	}
	return ckpts, render(a)
}

// resumeFrom restores ck into a fresh analyzer and replays the rest of tr
// from the checkpoint boundary, returning the rendered reports — exactly the
// crash-recovery path the service takes.
func resumeFrom(t *testing.T, tr *trace.Trace, ck savedCkpt) []string {
	t.Helper()
	a, err := tools.New("arbalest")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.(tools.Checkpointer).RestoreState(ck.state); err != nil {
		t.Fatalf("restore at event %d: %v", ck.next, err)
	}
	opts := trace.DurableOptions{StartEvent: ck.next}
	if _, err := tr.ReplayDurable(context.Background(), opts, a); err != nil {
		t.Fatalf("resume at event %d: %v", ck.next, err)
	}
	return render(a)
}

func assertSameReports(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d\ngot:  %q\nwant: %q", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: report %d differs\ngot:  %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

// TestCheckpointResumeEquivalenceDRACC is the crash/resume sweep: for every
// DRACC benchmark, checkpoint at every epoch boundary, then simulate a crash
// at each one — restore into a fresh analyzer, resume, and require the
// findings to be byte-identical to an uninterrupted replay.
func TestCheckpointResumeEquivalenceDRACC(t *testing.T) {
	for _, b := range dracc.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			tr := recordDRACC(t, b)
			want := renderedReports(t, tr, "arbalest")

			ckpts, full := collectCheckpoints(t, tr, 1)
			assertSameReports(t, "checkpointing run", full, want)
			if len(ckpts) == 0 {
				t.Fatalf("no checkpoints taken over %d events", len(tr.Events))
			}
			// Sample if the benchmark has very many boundaries; always keep
			// the first and last.
			step := 1
			if len(ckpts) > 25 {
				step = len(ckpts) / 25
			}
			for i := 0; i < len(ckpts); i += step {
				ck := ckpts[i]
				assertSameReports(t, fmt.Sprintf("resume@%d", ck.next), resumeFrom(t, tr, ck), want)
			}
			last := ckpts[len(ckpts)-1]
			got := resumeFrom(t, tr, last)
			assertSameReports(t, fmt.Sprintf("resume@%d (last)", last.next), got, want)
		})
	}
}

// TestCheckpointWithThreadClocksRestores: older releases stamped live
// accesses from per-thread clocks and saved them in the detector's state
// as "clocks". A checkpoint that still carries them must restore and
// resume to the same findings; the field is ignored.
func TestCheckpointWithThreadClocksRestores(t *testing.T) {
	tr := recordDRACC(t, dracc.ByID(22))
	want := renderedReports(t, tr, "arbalest")
	ckpts, _ := collectCheckpoints(t, tr, 1)
	ck := ckpts[len(ckpts)/2]
	var full map[string]json.RawMessage
	if err := json.Unmarshal(ck.state, &full); err != nil {
		t.Fatal(err)
	}
	var vsmState map[string]json.RawMessage
	if err := json.Unmarshal(full["vsm"], &vsmState); err != nil {
		t.Fatal(err)
	}
	vsmState["clocks"] = json.RawMessage(`[{"thread":1,"val":7},{"thread":3,"val":40}]`)
	var err error
	if full["vsm"], err = json.Marshal(vsmState); err != nil {
		t.Fatal(err)
	}
	if ck.state, err = json.Marshal(full); err != nil {
		t.Fatal(err)
	}
	assertSameReports(t, fmt.Sprintf("resume@%d with thread clocks", ck.next), resumeFrom(t, tr, ck), want)
}

// TestResumeBeyondEndRejected: a checkpoint from a longer trace must not
// silently "resume" past the end of a shorter one.
func TestResumeBeyondEndRejected(t *testing.T) {
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 1, Name: "gpu0"})
	tr := rec.Trace()
	a, err := tools.New("arbalest")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := tr.ReplayDurable(context.Background(), trace.DurableOptions{StartEvent: 99}, a)
	if rerr == nil || !strings.Contains(rerr.Error(), "beyond trace end") {
		t.Fatalf("StartEvent past end: err %v, want 'beyond trace end'", rerr)
	}
}

// syntheticAccessTrace builds a trace with one device init followed by n
// device accesses — long enough that a replay is observably in flight.
func syntheticAccessTrace(n int) *trace.Trace {
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 1, Name: "gpu0"})
	for i := 0; i < n; i++ {
		rec.OnAccess(ompt.AccessEvent{
			Addr:   mem.Addr(0x1000 + (i%256)*8),
			Size:   8,
			Write:  i%2 == 0,
			Device: 1,
			Task:   1,
		})
	}
	return rec.Trace()
}

// inFlight is a tool that closes started at the first access it is
// dispatched: the replay is then in flight.
type inFlight struct {
	ompt.NopTool
	once    sync.Once
	started chan struct{}
}

func (f *inFlight) OnAccess(ompt.AccessEvent) { f.once.Do(func() { close(f.started) }) }

// TestDurableReplayCancellation covers both cancellation shapes the service
// relies on: a context canceled before the replay starts, and one canceled
// while the replay is mid-flight (a run's timeout).
func TestDurableReplayCancellation(t *testing.T) {
	tr := syntheticAccessTrace(200_000)

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		a, err := tools.New("arbalest")
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := tr.ReplayDurable(ctx, trace.DurableOptions{}, a)
		if rerr == nil || !strings.Contains(rerr.Error(), "canceled") {
			t.Fatalf("pre-canceled replay: err %v, want cancellation", rerr)
		}
	})

	t.Run("mid-replay", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		a, err := tools.New("arbalest")
		if err != nil {
			t.Fatal(err)
		}
		f := &inFlight{started: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, rerr := tr.ReplayDurable(ctx, trace.DurableOptions{}, a, f)
			done <- rerr
		}()
		<-f.started
		cancel()
		if rerr := <-done; rerr != nil && !strings.Contains(rerr.Error(), "canceled") {
			t.Fatalf("err %v, want cancellation or clean finish", rerr)
		}
	})
}
