package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// record runs DRACC benchmark id under a recorder (plus, optionally, an
// online analyzer) and returns the trace.
func record(t *testing.T, id int, online tools.Analyzer) *trace.Trace {
	t.Helper()
	b := dracc.ByID(id)
	if b == nil {
		t.Fatalf("no benchmark %d", id)
	}
	rec := trace.NewRecorder()
	var rt *omp.Runtime
	if online != nil {
		rt = omp.NewRuntime(omp.Config{NumThreads: 1, ForceSync: true}, rec, online)
	} else {
		rt = omp.NewRuntime(omp.Config{NumThreads: 1, ForceSync: true}, rec)
	}
	_ = rt.Run(func(c *omp.Context) error {
		b.Run(c)
		return nil
	})
	return rec.Trace()
}

// assertReplayMatchesOnline replays tr into offline and requires the same
// report kinds and count as online, which analyzed the recorded execution
// live. The live runtime is an independent path: it stamps clocks as the
// program runs and builds its own runs of accesses, where replay
// dispatches views of the trace's columns with replay clocks.
func assertReplayMatchesOnline(t *testing.T, tr *trace.Trace, online, offline tools.Analyzer) {
	t.Helper()
	if err := tr.Replay(offline); err != nil {
		t.Fatalf("replay: %v", err)
	}
	onKinds := online.Sink().Kinds()
	offKinds := offline.Sink().Kinds()
	if !reflect.DeepEqual(onKinds, offKinds) {
		t.Errorf("online kinds %v, offline kinds %v", onKinds, offKinds)
	}
	if online.Sink().Count() != offline.Sink().Count() {
		t.Errorf("online %d reports, offline %d", online.Sink().Count(), offline.Sink().Count())
	}
}

// TestReplayMatchesOnlineAnalysis: for every DRACC benchmark, replaying the
// recorded trace into a fresh ARBALEST produces the same reports as the
// online run.
func TestReplayMatchesOnlineAnalysis(t *testing.T) {
	for _, b := range dracc.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			online := tools.NewArbalestFull(nil)
			tr := record(t, b.ID, online)
			assertReplayMatchesOnline(t, tr, online, tools.NewArbalestFull(nil))
		})
	}
}

// TestReplayMatchesOnlineSPEC does the same for the SPEC ACCEL proxy
// workloads (correct programs: zero reports both ways) and the buggy
// postencil case study, which reports one stale access.
func TestReplayMatchesOnlineSPEC(t *testing.T) {
	run := func(t *testing.T, body func(c *omp.Context) error) int {
		online := tools.NewArbalestFull(nil)
		rec := trace.NewRecorder()
		rt := omp.NewRuntime(omp.Config{NumThreads: 1, HostMem: 8 << 20, DeviceMem: 8 << 20}, rec, online)
		if err := rt.Run(body); err != nil {
			t.Fatal(err)
		}
		assertReplayMatchesOnline(t, rec.Trace(), online, tools.NewArbalestFull(nil))
		return online.Sink().Count()
	}
	for _, w := range specaccel.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if n := run(t, func(c *omp.Context) error { return w.Run(c, 1) }); n != 0 {
				t.Errorf("%d reports on a correct workload", n)
			}
		})
	}
	t.Run("postencil-buggy", func(t *testing.T) {
		t.Parallel()
		n := run(t, func(c *omp.Context) error {
			specaccel.RunPostencilBuggy(c, 1)
			return nil
		})
		if n == 0 {
			t.Error("the stale access went unreported")
		}
	})
}

// TestReplayMatchesOnlineAllTools runs one report-rich benchmark through
// every registered tool: the baselines and the standalone race detector
// must replay to their online verdicts too, not just ARBALEST.
func TestReplayMatchesOnlineAllTools(t *testing.T) {
	for _, name := range tools.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			online, err := tools.New(name)
			if err != nil {
				t.Fatal(err)
			}
			offline, _ := tools.New(name)
			tr := record(t, 22, online)
			assertReplayMatchesOnline(t, tr, online, offline)
		})
	}
}

// TestReplayIsDeterministic: two replays of one trace agree exactly.
func TestReplayIsDeterministic(t *testing.T) {
	tr := record(t, 22, nil)
	a1 := tools.NewArbalestFull(nil)
	a2 := tools.NewArbalestFull(nil)
	if err := tr.Replay(a1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(a2); err != nil {
		t.Fatal(err)
	}
	if a1.Sink().Count() != a2.Sink().Count() {
		t.Errorf("replays disagree: %d vs %d reports", a1.Sink().Count(), a2.Sink().Count())
	}
}

// TestSaveLoadRoundTrip: serialization preserves the event stream.
func TestSaveLoadRoundTrip(t *testing.T) {
	tr := record(t, 26, nil)
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(tr.Events) {
		t.Fatalf("round trip: %d events, want %d", back.Len(), len(tr.Events))
	}
	// Replaying the loaded trace still finds the bug.
	a := tools.NewArbalestFull(nil)
	if err := back.Replay(a); err != nil {
		t.Fatal(err)
	}
	if a.Sink().Count() == 0 {
		t.Error("loaded trace lost the diagnostic")
	}
}

// TestReplayIntoMultipleTools: one recorded execution, several detectors.
func TestReplayIntoMultipleTools(t *testing.T) {
	tr := record(t, 23, nil) // buffer overflow benchmark
	arb, _ := tools.New("arbalest-vsm")
	asan, _ := tools.New("asan")
	msan, _ := tools.New("msan")
	if err := tr.Replay(arb, asan, msan); err != nil {
		t.Fatal(err)
	}
	if arb.Sink().Count() == 0 {
		t.Error("arbalest missed the BO offline")
	}
	if asan.Sink().Count() == 0 {
		t.Error("asan missed the BO offline")
	}
	if msan.Sink().Count() != 0 {
		t.Error("msan falsely reported on the BO offline")
	}
}

// TestLoadRejectsGarbage covers the error path.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := trace.Load(bytes.NewBufferString("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestRecorderTakesRuns: a recorder fed a run records what one fed the
// same rows through OnAccess records: one event per row, in order, with
// Clock zero, numbered on from the events before it.
func TestRecorderTakesRuns(t *testing.T) {
	loc := ompt.SourceLoc{File: "k.c", Line: 9, Func: "kernel"}
	rows := []ompt.AccessEvent{
		{Addr: 0x1000, Size: 8, Write: true, Device: 0, Task: 2, Thread: 3, Base: 0x1000, Tag: "a", Loc: loc},
		{Addr: 0x2008, Size: 4, Device: ompt.HostDevice, Task: 1, Thread: 1, Base: 0x2000, Tag: "b", Loc: loc},
		{Addr: 0x1008, Size: 8, Device: 0, Task: 2, Thread: 4, Base: 0x1000, Tag: "a", Loc: loc},
	}
	sync := ompt.SyncEvent{Kind: ompt.SyncTaskBegin, Task: 1, Thread: 1}
	perRow, perRun := trace.NewRecorder(), trace.NewRecorder()
	var run ompt.AccessBatch
	perRow.OnSync(sync)
	perRun.OnSync(sync)
	for i, e := range rows {
		e.Clock = uint64(i + 2)
		perRow.OnAccess(e)
		run.Append(&e)
	}
	perRun.OnAccessBatch(&run)
	perRow.OnSync(sync)
	perRun.OnSync(sync)
	got, want := perRun.Trace().Events, perRow.Trace().Events
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recording fed a run differs from one fed the rows:\n got %+v\nwant %+v", got, want)
	}
	if len(got) != len(rows)+2 {
		t.Errorf("%d events recorded, want %d", len(got), len(rows)+2)
	}
}

// TestRecorderLen covers the counter.
func TestRecorderLen(t *testing.T) {
	rec := trace.NewRecorder()
	if rec.Len() != 0 {
		t.Error("fresh recorder non-empty")
	}
	rt := omp.NewRuntime(omp.Config{NumThreads: 1}, rec)
	_ = rt.Run(func(c *omp.Context) error {
		b := c.AllocI64(1, "x")
		c.StoreI64(b, 0, 1)
		return nil
	})
	if rec.Len() == 0 {
		t.Error("recorder captured nothing")
	}
	if rec.Name() == "" {
		t.Error("empty name")
	}
}
