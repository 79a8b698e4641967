package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// assertEquivalent replays tr, recorded from a multi-threaded run, into the
// named tool three ways — from memory, and after a round trip through each
// on-disk encoding (JSON lines and framed) — and requires byte-identical
// rendered reports, content AND order. The reloaded replays are the
// load-then-replay path that `arbalest -replay-trace` and the daemon take, so
// no encoding can perturb a finding.
func assertEquivalent(t *testing.T, tr *trace.Trace, toolName string) {
	t.Helper()
	want := renderedReports(t, tr, toolName)
	encodings := []struct {
		name string
		save func(*bytes.Buffer) error
	}{
		{"json-lines", func(b *bytes.Buffer) error { return tr.Save(b) }},
		{"framed", func(b *bytes.Buffer) error { return tr.SaveFramed(b) }},
	}
	for _, enc := range encodings {
		var buf bytes.Buffer
		if err := enc.save(&buf); err != nil {
			t.Fatalf("%s: save: %v", enc.name, err)
		}
		loaded, err := trace.Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", enc.name, err)
		}
		if loaded.Len() != len(tr.Events) {
			t.Fatalf("%s: reloaded %d events, recorded %d", enc.name, loaded.Len(), len(tr.Events))
		}
		assertSameReports(t, enc.name, renderedReports(t, loaded, toolName), want)
	}
}

// TestParallelReplayEquivalenceDRACC sweeps the whole DRACC suite — every
// buggy and every correct benchmark, recorded on a four-thread runtime —
// through ARBALEST and requires byte-identical reports from every replay
// front.
func TestParallelReplayEquivalenceDRACC(t *testing.T) {
	for _, b := range dracc.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			assertEquivalent(t, recordDRACC(t, b), "arbalest")
		})
	}
}

// TestParallelReplayEquivalenceSPEC covers the SPEC ACCEL proxy workloads
// (correct programs: the assertion is "still zero reports from every front")
// plus the buggy postencil case study, whose reports must survive every
// encoding.
func TestParallelReplayEquivalenceSPEC(t *testing.T) {
	cfg := omp.Config{NumThreads: 4, HostMem: 8 << 20, DeviceMem: 8 << 20}
	for _, w := range specaccel.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			rt := omp.NewRuntime(cfg, rec)
			if err := rt.Run(func(c *omp.Context) error { return w.Run(c, 1) }); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, rec.Trace(), "arbalest")
		})
	}
	t.Run("postencil-buggy", func(t *testing.T) {
		t.Parallel()
		rec := trace.NewRecorder()
		rt := omp.NewRuntime(cfg, rec)
		_ = rt.Run(func(c *omp.Context) error {
			specaccel.RunPostencilBuggy(c, 1)
			return nil
		})
		assertEquivalent(t, rec.Trace(), "arbalest")
	})
}

// TestParallelReplayEquivalenceAllTools runs one report-rich benchmark
// through every registered tool: the baselines and the standalone race
// detector must replay identically from every front too, not just ARBALEST.
func TestParallelReplayEquivalenceAllTools(t *testing.T) {
	b := dracc.ByID(22)
	if b == nil {
		t.Fatal("DRACC_OMP_022 missing")
	}
	tr := recordDRACC(t, b)
	for _, toolName := range tools.Names() {
		toolName := toolName
		t.Run(toolName, func(t *testing.T) {
			t.Parallel()
			assertEquivalent(t, tr, toolName)
		})
	}
}
