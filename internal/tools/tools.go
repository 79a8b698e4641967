// Package tools assembles analysis-tool configurations for the evaluation
// harnesses: it provides the uniform Analyzer interface over ARBALEST, the
// Archer-analogue race detector, and the Valgrind/ASan/MSan analogues, plus
// the composite configuration the paper evaluates (ARBALEST is built on
// Archer and runs its race detection alongside the VSM analysis, §V).
package tools

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/ompt"
	"repro/internal/race"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// Analyzer is the common surface of every analysis tool in this repository.
type Analyzer interface {
	ompt.Tool
	// Sink returns the tool's report sink.
	Sink() *report.Sink
	// ShadowBytes returns the tool's peak shadow-state footprint.
	ShadowBytes() uint64
}

// Releaser is implemented by analyzers whose shadow state is leased from
// a pooled arena. Release returns the slabs for reuse by the next job; it
// must only be called after the last event and the final Summarize/
// CheckpointState of the analyzer.
type Releaser interface {
	Release()
}

// Names lists the tool names accepted by New, in the column order of the
// paper's Table III.
func Names() []string {
	return []string{"arbalest", "valgrind", "archer", "asan", "msan"}
}

// Options configures analyzer construction.
type Options struct {
	// Stats enables analyzer-level telemetry collection (StatsProvider
	// analyzers only; ignored for the rest).
	Stats bool
}

// NewWithOptions creates the named tool and applies opts.
func NewWithOptions(name string, opts Options) (Analyzer, error) {
	a, err := New(name)
	if err != nil {
		return nil, err
	}
	if opts.Stats {
		if sp, ok := a.(StatsProvider); ok {
			sp.EnableStats()
		}
	}
	return a, nil
}

// builders holds the constructor of every tool New accepts.
var builders = map[string]func() Analyzer{
	"arbalest":     func() Analyzer { return NewArbalestFull(nil) },
	"arbalest-vsm": func() Analyzer { return core.New(core.Options{}) },
	"archer":       func() Analyzer { return race.New(nil) },
	"valgrind":     func() Analyzer { return baselines.NewMemcheck(nil) },
	"asan":         func() Analyzer { return baselines.NewASan(nil) },
	"msan":         func() Analyzer { return baselines.NewMSan(nil) },
}

// Known returns nil for a tool New builds and New's error for any other
// name, without building anything, so a caller can refuse an unknown tool
// before it spends anything on the request.
func Known(name string) error {
	if builders[name] == nil {
		return fmt.Errorf("tools: unknown tool %q (valid: arbalest, arbalest-vsm, archer, valgrind, asan, msan)", name)
	}
	return nil
}

// New creates the named tool. Valid names are "arbalest" (VSM detector plus
// its embedded Archer race detection), "arbalest-vsm" (VSM only), "archer",
// "valgrind", "asan", and "msan".
func New(name string) (Analyzer, error) {
	if err := Known(name); err != nil {
		return nil, err
	}
	return builders[name](), nil
}

// ArbalestFull is ARBALEST as evaluated in the paper: the VSM-based mapping
// issue detector running on top of Archer's race detection, sharing one
// report sink.
type ArbalestFull struct {
	vsm  *core.Arbalest
	race *race.Detector
	sink *report.Sink
}

// NewArbalestFull builds the composite with a shared sink (fresh when nil).
func NewArbalestFull(sink *report.Sink) *ArbalestFull {
	if sink == nil {
		sink = report.NewSink()
	}
	return &ArbalestFull{
		vsm:  core.New(core.Options{Sink: sink}),
		race: race.New(sink),
		sink: sink,
	}
}

// VSM returns the embedded mapping-issue detector.
func (a *ArbalestFull) VSM() *core.Arbalest { return a.vsm }

// EnableStats implements StatsProvider by enabling collection on the VSM
// component (the race detector is not instrumented).
func (a *ArbalestFull) EnableStats() *telemetry.AnalyzerStats { return a.vsm.EnableStats() }

// AnalyzerStats implements StatsProvider.
func (a *ArbalestFull) AnalyzerStats() *telemetry.AnalyzerStats { return a.vsm.AnalyzerStats() }

// AccessCount returns the number of instrumented accesses the VSM
// component analyzed.
func (a *ArbalestFull) AccessCount() uint64 { return a.vsm.AccessCount() }

// Race returns the embedded race detector.
func (a *ArbalestFull) Race() *race.Detector { return a.race }

// Name implements ompt.Tool.
func (a *ArbalestFull) Name() string { return "Arbalest" }

// Sink returns the shared report sink.
func (a *ArbalestFull) Sink() *report.Sink { return a.sink }

// ShadowBytes sums the two components' shadow state.
func (a *ArbalestFull) ShadowBytes() uint64 { return a.vsm.ShadowBytes() + a.race.ShadowBytes() }

// OnDeviceInit implements ompt.Tool.
func (a *ArbalestFull) OnDeviceInit(e ompt.DeviceInitEvent) {
	a.vsm.OnDeviceInit(e)
	a.race.OnDeviceInit(e)
}

// OnTargetBegin implements ompt.Tool.
func (a *ArbalestFull) OnTargetBegin(e ompt.TargetEvent) {
	a.vsm.OnTargetBegin(e)
	a.race.OnTargetBegin(e)
}

// OnTargetEnd implements ompt.Tool.
func (a *ArbalestFull) OnTargetEnd(e ompt.TargetEvent) {
	a.vsm.OnTargetEnd(e)
	a.race.OnTargetEnd(e)
}

// OnDataOp implements ompt.Tool.
func (a *ArbalestFull) OnDataOp(e ompt.DataOpEvent) {
	a.vsm.OnDataOp(e)
	a.race.OnDataOp(e)
}

// OnAccess implements ompt.Tool.
func (a *ArbalestFull) OnAccess(e ompt.AccessEvent) {
	a.vsm.OnAccess(e)
	a.race.OnAccess(e)
}

// OnAccessBatch implements ompt.BatchTool: both components consume the
// columnar batch, in the same vsm-then-race order as the per-event path.
func (a *ArbalestFull) OnAccessBatch(b *ompt.AccessBatch) {
	a.vsm.OnAccessBatch(b)
	a.race.OnAccessBatch(b)
}

// InlineAccess tells the live runtime whether the VSM component needs each
// access as it happens, as it does when a repairer is attached to it.
func (a *ArbalestFull) InlineAccess() bool { return a.vsm.InlineAccess() }

// Release implements Releaser: the VSM component's shadow slabs go back
// to the arena and the race detector's cell pages to their pool, ready
// for the next job.
func (a *ArbalestFull) Release() {
	a.vsm.Release()
	a.race.Release()
}

// OnSync implements ompt.Tool.
func (a *ArbalestFull) OnSync(e ompt.SyncEvent) {
	a.vsm.OnSync(e)
	a.race.OnSync(e)
}

// OnAlloc implements ompt.Tool.
func (a *ArbalestFull) OnAlloc(e ompt.AllocEvent) {
	a.vsm.OnAlloc(e)
	a.race.OnAlloc(e)
}

var (
	_ Analyzer = (*ArbalestFull)(nil)
	_ Analyzer = (*core.Arbalest)(nil)
	_ Analyzer = (*race.Detector)(nil)
	_ Analyzer = (*baselines.ASan)(nil)
	_ Analyzer = (*baselines.MSan)(nil)
	_ Analyzer = (*baselines.Memcheck)(nil)
)
