// Package omp implements a simulated OpenMP target-offloading runtime.
//
// The runtime reproduces the execution model of OpenMP device constructs
// (paper §II): a host program running in an initial task can offload compute
// kernels (target regions) to devices, declare data mappings with the
// reference-counting semantics of map clauses (paper Table I), perform
// explicit synchronizations with target update, and launch asynchronous
// kernels with nowait plus depend clauses.
//
// Each device owns an independent simulated address space (internal/mem), so
// a mapped variable's original variable (OV, host storage) and corresponding
// variable (CV, device storage) are physically distinct and can disagree —
// the root cause of data mapping issues. A unified-memory mode is also
// provided, in which devices operate directly on host storage (paper §III-B).
//
// Analysis tools observe the runtime through the ompt package: the runtime
// emits device-init, target, data-op, sync, and per-access events. Programs
// are written against Context accessors (LoadF64, StoreI64, ...) which stand
// in for compiler-instrumented loads and stores. The runtime is the only
// owner of concurrency: however many threads the program runs, it
// delivers the callbacks one at a time, in one global order, accesses in
// runs (see toolBus).
package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// Config configures a Runtime.
type Config struct {
	// NumDevices is the number of accelerators to create (default 1).
	NumDevices int
	// HostMem and DeviceMem size the simulated address spaces in bytes
	// (defaults 64 MiB each).
	HostMem   uint64
	DeviceMem uint64
	// NumThreads is the number of simulated device threads used by
	// ParallelFor (default 4).
	NumThreads int
	// Unified makes every device share the host address space, modeling
	// unified memory with on-demand migration (paper §III-B). Map clauses
	// then allocate no CVs and transfers are no-ops.
	Unified bool
	// ForceSync makes nowait constructs execute synchronously. Together
	// with race-freedom this is the paper's Theorem 1 procedure for
	// complete detection with asynchronous kernels.
	ForceSync bool
}

func (c *Config) fillDefaults() {
	if c.NumDevices <= 0 {
		c.NumDevices = 1
	}
	if c.HostMem == 0 {
		c.HostMem = 64 << 20
	}
	if c.DeviceMem == 0 {
		c.DeviceMem = 64 << 20
	}
	if c.NumThreads <= 0 {
		c.NumThreads = 4
	}
}

// Device is one simulated accelerator.
type Device struct {
	id      ompt.DeviceID
	space   *mem.Space
	env     *dataEnv
	unified bool
}

// ID returns the device's id.
func (d *Device) ID() ompt.DeviceID { return d.id }

// Space returns the device's address space (the host space in unified mode).
func (d *Device) Space() *mem.Space { return d.space }

// Runtime is the simulated offloading runtime.
type Runtime struct {
	cfg     Config
	host    *mem.Space
	devices []*Device
	tools   toolBus

	taskSeq   atomic.Uint64
	threadSeq atomic.Uint32

	mu       sync.Mutex
	faults   []error
	declared []*Buffer // declare-target globals (see declare.go)

	// unifiedPages tracks page residency in unified-memory mode (§III-B).
	unifiedPages *unifiedState

	depMu sync.Mutex
	deps  map[mem.Addr]*depEntry // keyed by buffer base address
}

// NewRuntime creates a runtime with the given configuration and registers
// the provided tools. Tools must be registered at construction so they
// observe device initialization.
func NewRuntime(cfg Config, tools ...ompt.Tool) *Runtime {
	cfg.fillDefaults()
	rt := &Runtime{
		cfg:  cfg,
		host: mem.NewSpace("host", mem.HostBase, cfg.HostMem),
		deps: make(map[mem.Addr]*depEntry),
	}
	if cfg.Unified {
		rt.unifiedPages = newUnifiedState()
	}
	for _, t := range tools {
		rt.tools.d.Register(t)
	}
	for i := 0; i < cfg.NumDevices; i++ {
		d := &Device{
			id:      ompt.DeviceID(i),
			env:     newDataEnv(),
			unified: cfg.Unified,
		}
		if cfg.Unified {
			d.space = rt.host
		} else {
			d.space = mem.NewSpace(fmt.Sprintf("dev%d", i), mem.DeviceBase(i), cfg.DeviceMem)
		}
		rt.devices = append(rt.devices, d)
		rt.tools.DeviceInit(ompt.DeviceInitEvent{
			Device:   d.id,
			Name:     d.space.Name(),
			Unified:  cfg.Unified,
			NumSpace: d.space,
		})
	}
	return rt
}

// Host returns the host address space.
func (rt *Runtime) Host() *mem.Space { return rt.host }

// Device returns device d.
func (rt *Runtime) Device(d int) *Device { return rt.devices[d] }

// NumDevices returns the number of devices.
func (rt *Runtime) NumDevices() int { return len(rt.devices) }

// Unified reports whether the runtime runs in unified-memory mode.
func (rt *Runtime) Unified() bool { return rt.cfg.Unified }

// ForceSync reports whether nowait constructs are forced synchronous.
func (rt *Runtime) ForceSync() bool { return rt.cfg.ForceSync }

// fault records a simulation-level runtime error (wild access, allocation
// failure). Faults do not abort the program — real offloading bugs usually
// corrupt data silently — but are reported by Run.
func (rt *Runtime) fault(err error) {
	if err == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.faults = append(rt.faults, err)
}

// Faults returns the runtime errors recorded so far.
func (rt *Runtime) Faults() []error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]error, len(rt.faults))
	copy(out, rt.faults)
	return out
}

func (rt *Runtime) newTaskID() ompt.TaskID {
	return ompt.TaskID(rt.taskSeq.Add(1))
}

func (rt *Runtime) newThreadID() ompt.ThreadID {
	return ompt.ThreadID(rt.threadSeq.Add(1))
}

// Run executes body as the program's initial task on the host. It returns
// body's error if any, otherwise the first recorded runtime fault.
func (rt *Runtime) Run(body func(c *Context) error) error {
	t := &task{
		rt:     rt,
		id:     rt.newTaskID(),
		thread: rt.newThreadID(),
	}
	c := &Context{rt: rt, task: t, device: ompt.HostDevice, space: rt.host}
	rt.tools.begin()
	rt.tools.Sync(ompt.SyncEvent{Kind: ompt.SyncTaskBegin, Task: t.id, Thread: t.thread})
	err := body(c)
	// Implicit barrier at program end: join outstanding children. The
	// task end then delivers the last pending run of accesses.
	c.TaskWait()
	rt.tools.Sync(ompt.SyncEvent{Kind: ompt.SyncTaskEnd, Task: t.id, Thread: t.thread})
	if err != nil {
		return err
	}
	if fs := rt.Faults(); len(fs) > 0 {
		return fs[0]
	}
	return nil
}

// toolBus delivers the runtime's tool callbacks. The program's threads are
// goroutines that emit events concurrently; the bus takes one lock per
// event, so every tool sees every event one at a time, in one global
// order, and tools keep no locks of their own. It stamps each access and
// data operation with Clock = its position in that order plus one, the
// clock replay derives from a recording's sequence numbers, so a live run
// and the replay of its recording analyze identical streams.
//
// An access gets its clock as it happens but is not delivered then: the
// bus appends it to a pending run, and delivers the run through
// Dispatcher.AccessBatch before the next non-access callback, once it
// holds runCap accesses, and so before Run returns, whose last callback is
// a task end. Tools therefore see the same events with the same clocks in
// the same order, only grouped, and analyze them with the batch kernels
// replay uses. The one exception is a registered inlineTool that asks for
// each access before its load executes (§III-C repair): every run is then
// one access long and delivered at once.
type toolBus struct {
	mu     sync.Mutex
	pos    uint64 // events so far
	d      ompt.Dispatcher
	run    ompt.AccessBatch // accesses not yet delivered
	inline bool             // deliver each access alone (see begin)
}

// inlineTool is implemented by tools that may act on the program from an
// access callback, before the access's load executes: core.Arbalest with
// a repairer attached issues the missing transfer there (paper §III-C).
// While a registered tool's InlineAccess reports true, the bus delivers
// every access alone, at the moment it happens.
type inlineTool interface {
	InlineAccess() bool
}

// runCap bounds a pending run, as it bounds a stream session's batch: long
// enough to amortize a dispatch, short enough that the run's columns stay
// in cache while the tools stream through them.
const runCap = 256

// Empty reports whether no tool is registered (native runs skip
// instrumentation entirely). Tools are registered at construction only.
func (b *toolBus) Empty() bool { return b.d.Empty() }

// begin derives, at the start of Run, whether accesses go out one at a
// time: a repairer is attached to its tool after the runtime is built.
func (b *toolBus) begin() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inline = false
	for _, t := range b.d.Tools() {
		if it, ok := t.(inlineTool); ok && it.InlineAccess() {
			b.inline = true
		}
	}
}

// enter takes the bus lock for one non-access callback, delivers the
// pending run, and returns the callback's clock: its position in the
// global order plus one.
func (b *toolBus) enter() uint64 {
	b.mu.Lock()
	b.flush()
	b.pos++
	return b.pos
}

// flush delivers the pending run. The caller holds b.mu.
func (b *toolBus) flush() {
	if b.run.Len() > 0 {
		b.d.AccessBatch(&b.run)
		b.run.Reset()
	}
}

// DeviceInit delivers a DeviceInitEvent.
func (b *toolBus) DeviceInit(e ompt.DeviceInitEvent) {
	b.enter()
	defer b.mu.Unlock()
	b.d.DeviceInit(e)
}

// TargetBegin delivers entry to a device directive.
func (b *toolBus) TargetBegin(e ompt.TargetEvent) {
	b.enter()
	defer b.mu.Unlock()
	b.d.TargetBegin(e)
}

// TargetEnd delivers exit from a device directive.
func (b *toolBus) TargetEnd(e ompt.TargetEvent) {
	b.enter()
	defer b.mu.Unlock()
	b.d.TargetEnd(e)
}

// DataOp delivers a data-mapping operation.
func (b *toolBus) DataOp(e ompt.DataOpEvent) {
	e.Clock = b.enter()
	defer b.mu.Unlock()
	b.d.DataOp(e)
}

// dataOpHeld delivers a data-mapping operation on the goroutine that
// already holds b.mu: a repair transfer, issued from inside the delivery
// of the one-access run that detected the stale read.
func (b *toolBus) dataOpHeld(e ompt.DataOpEvent) {
	b.pos++
	e.Clock = b.pos
	b.d.DataOp(e)
}

// Access stamps an application memory access with its clock and appends
// it to the pending run, delivering the run when it is full or when
// accesses go out one at a time.
func (b *toolBus) Access(e *ompt.AccessEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pos++
	e.Clock = b.pos
	b.run.Append(e)
	if b.inline || b.run.Len() == runCap {
		b.flush()
	}
}

// Sync delivers a synchronization event.
func (b *toolBus) Sync(e ompt.SyncEvent) {
	b.enter()
	defer b.mu.Unlock()
	b.d.Sync(e)
}

// Alloc delivers a host allocation event.
func (b *toolBus) Alloc(e ompt.AllocEvent) {
	b.enter()
	defer b.mu.Unlock()
	b.d.Alloc(e)
}
