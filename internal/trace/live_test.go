package trace_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// TestLiveMatchesReplayExactly: the runtime delivers tool callbacks one at
// a time in one global order and stamps each access and data-op with its
// position plus one, so a multi-threaded live run and the replay of its
// recording analyze the same stream. Their rendered reports must agree
// byte for byte, in content and in order, for every DRACC program, every
// SPEC proxy and the buggy postencil case study, under ARBALEST and the
// standalone race detector.
func TestLiveMatchesReplayExactly(t *testing.T) {
	type program struct {
		name    string
		devices int
		run     func(c *omp.Context) error
	}
	var progs []program
	for _, b := range dracc.All() {
		b := b
		progs = append(progs, program{b.Name(), b.Devices, func(c *omp.Context) error { b.Run(c); return nil }})
	}
	for _, w := range specaccel.All() {
		w := w
		progs = append(progs, program{w.Name, 0, func(c *omp.Context) error { return w.Run(c, 1) }})
	}
	progs = append(progs, program{"postencil-buggy", 0, func(c *omp.Context) error {
		specaccel.RunPostencilBuggy(c, 1)
		return nil
	}})
	for _, tool := range []string{"arbalest", "archer"} {
		for _, p := range progs {
			tool, p := tool, p
			t.Run(tool+"/"+p.name, func(t *testing.T) {
				t.Parallel()
				live, err := tools.New(tool)
				if err != nil {
					t.Fatal(err)
				}
				rec := trace.NewRecorder()
				rt := omp.NewRuntime(omp.Config{
					NumDevices: p.devices, NumThreads: 4, HostMem: 8 << 20, DeviceMem: 8 << 20,
				}, rec, live)
				// Buggy programs may fault the simulated runtime; the fault
				// is part of the recorded execution either way.
				_ = rt.Run(p.run)
				offline, _ := tools.New(tool)
				if _, err := rec.Trace().ReplayDurable(context.Background(), trace.DurableOptions{}, offline); err != nil {
					t.Fatalf("replay: %v", err)
				}
				got := strings.Join(render(offline), "")
				if want := strings.Join(render(live), ""); got != want {
					t.Errorf("replay renders differently from the live run\nlive:\n%s\nreplay:\n%s", want, got)
				}
			})
		}
	}
}

// perEvent hides a tool's batch path, so the dispatcher hands it each
// access of a run through OnAccess.
type perEvent struct{ tools.Analyzer }

// TestBatchMatchesPerEvent: live runs and replay both hand tools their
// accesses in runs, so a tool's OnAccess runs only where its batch kernel
// falls back to it or a wrapper hides the batch path. The BatchTool
// contract says both paths report the same; every tool must render the
// same reports, in the same order, from a recording of every DRACC
// program, every SPEC proxy and the buggy postencil case study, replayed
// once in runs and once access by access.
func TestBatchMatchesPerEvent(t *testing.T) {
	type program struct {
		name    string
		devices int
		run     func(c *omp.Context) error
	}
	var progs []program
	for _, b := range dracc.All() {
		b := b
		progs = append(progs, program{b.Name(), b.Devices, func(c *omp.Context) error { b.Run(c); return nil }})
	}
	for _, w := range specaccel.All() {
		w := w
		progs = append(progs, program{w.Name, 0, func(c *omp.Context) error { return w.Run(c, 1) }})
	}
	progs = append(progs, program{"postencil-buggy", 0, func(c *omp.Context) error {
		specaccel.RunPostencilBuggy(c, 1)
		return nil
	}})
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			rt := omp.NewRuntime(omp.Config{
				NumDevices: p.devices, NumThreads: 4, HostMem: 8 << 20, DeviceMem: 8 << 20,
			}, rec)
			_ = rt.Run(p.run)
			tr := rec.Trace()
			for _, name := range append(tools.Names(), "arbalest-vsm") {
				runs, _ := tools.New(name)
				single, _ := tools.New(name)
				if err := tr.Replay(runs); err != nil {
					t.Fatalf("%s: replay in runs: %v", name, err)
				}
				if err := tr.Replay(perEvent{single}); err != nil {
					t.Fatalf("%s: replay access by access: %v", name, err)
				}
				got, want := strings.Join(render(runs), ""), strings.Join(render(single), "")
				if got != want {
					t.Errorf("%s: runs render differently from single accesses\nsingle:\n%s\nruns:\n%s", name, want, got)
				}
			}
		})
	}
}
