// Package ompt defines the tool interface through which analysis tools
// observe the simulated offloading runtime.
//
// It plays the role OMPT plays for the paper's ARBALEST: the runtime emits
// callbacks for device initialization, target regions, data-mapping
// operations (allocation, deletion, host<->device transfers), kernel
// submission, task synchronization, and — standing in for compile-time
// instrumentation — every application memory access. The event vocabulary
// deliberately includes what the paper reported missing from stock OMPT:
// implicit global-variable mappings and the synchronous/asynchronous flavour
// of each target region.
//
// Every event source delivers accesses in runs, as AccessBatch columns
// plus a site table of distinct (Tag, Loc) pairs: replay as views of a
// trace's access columns between barrier events, the live runtime as runs
// it builds while the program executes (see Tool). Tools implementing
// BatchTool consume a run whole; AccessBatch.At rebuilds one event from
// the columns for the others and for slow paths such as reports.
package ompt

import (
	"repro/internal/mem"
)

// DeviceID identifies a device. HostDevice denotes the host itself.
type DeviceID int

// HostDevice is the DeviceID of the host.
const HostDevice DeviceID = -1

// TaskID identifies a task (the initial/host task, explicit tasks, and target
// tasks all get IDs from the same sequence).
type TaskID uint64

// ThreadID identifies an execution thread in the simulation. Host threads and
// device threads share the sequence.
type ThreadID uint32

// TargetKind distinguishes the device directives (paper §II-B).
type TargetKind uint8

// The device directive kinds.
const (
	KindTarget TargetKind = iota
	KindTargetData
	KindTargetEnterData
	KindTargetExitData
	KindTargetUpdate
)

func (k TargetKind) String() string {
	switch k {
	case KindTarget:
		return "target"
	case KindTargetData:
		return "target data"
	case KindTargetEnterData:
		return "target enter data"
	case KindTargetExitData:
		return "target exit data"
	case KindTargetUpdate:
		return "target update"
	}
	return "unknown"
}

// DataOpKind distinguishes data-mapping operations.
type DataOpKind uint8

// The data-mapping operation kinds.
const (
	// OpAlloc allocates a corresponding variable (CV) on a device.
	OpAlloc DataOpKind = iota
	// OpDelete frees a CV.
	OpDelete
	// OpTransferToDevice copies OV -> CV (the paper's update_target).
	OpTransferToDevice
	// OpTransferFromDevice copies CV -> OV (the paper's update_host).
	OpTransferFromDevice
)

func (k DataOpKind) String() string {
	switch k {
	case OpAlloc:
		return "alloc"
	case OpDelete:
		return "delete"
	case OpTransferToDevice:
		return "to-device"
	case OpTransferFromDevice:
		return "from-device"
	}
	return "unknown"
}

// SyncKind distinguishes synchronization events used to build happens-before.
type SyncKind uint8

// The synchronization event kinds.
const (
	// SyncTaskCreate: a task created a child task (Child is set).
	SyncTaskCreate SyncKind = iota
	// SyncTaskBegin: a task started executing on a thread.
	SyncTaskBegin
	// SyncTaskEnd: a task finished.
	SyncTaskEnd
	// SyncTaskWait: a task waited for all its outstanding children.
	SyncTaskWait
	// SyncDependence: an ordering edge Child -> Task induced by depend clauses.
	SyncDependence
)

func (k SyncKind) String() string {
	switch k {
	case SyncTaskCreate:
		return "task-create"
	case SyncTaskBegin:
		return "task-begin"
	case SyncTaskEnd:
		return "task-end"
	case SyncTaskWait:
		return "task-wait"
	case SyncDependence:
		return "dependence"
	}
	return "unknown"
}

// DeviceInitEvent reports a device becoming available.
type DeviceInitEvent struct {
	Device   DeviceID
	Name     string
	Unified  bool // device shares a unified memory space with the host
	NumSpace *mem.Space
}

// TargetEvent reports entry to or exit from a device directive.
type TargetEvent struct {
	Kind   TargetKind
	Device DeviceID
	Task   TaskID // the encountering (host-side) task
	Target TaskID // the target task created for the region (KindTarget only)
	Async  bool   // nowait was present
	Loc    SourceLoc
}

// MapEntry describes one mapped variable inside a DataOpEvent or TargetEvent.
type MapEntry struct {
	Tag      string
	HostAddr mem.Addr
	Bytes    uint64
}

// DataOpEvent reports one data-mapping operation.
type DataOpEvent struct {
	Kind     DataOpKind
	Device   DeviceID
	Task     TaskID
	Tag      string   // mapped variable label
	HostAddr mem.Addr // OV base (zero for pure device ops with no OV)
	DevAddr  mem.Addr // CV base
	Bytes    uint64
	Implicit bool // implicit mapping (e.g. global variable at device init)
	Loc      SourceLoc
	// Clock is the operation's position in the event stream plus one (see
	// AccessEvent.Clock). Tools that emit reports from data operations use
	// it to order those reports against access-driven ones. Never
	// serialized.
	Clock uint64 `json:"-"`
}

// AccessEvent reports one application memory access, standing in for the
// compiler instrumentation callbacks.
type AccessEvent struct {
	Addr   mem.Addr
	Size   uint64
	Write  bool
	Device DeviceID // HostDevice for host code, else the executing device
	Task   TaskID
	Thread ThreadID
	// Base is the base address of the buffer the access was issued
	// against (for device accesses, the CV base the compiler would have
	// materialized). ARBALEST's buffer-overflow extension compares Addr's
	// interval with Base's interval (paper §IV-D).
	Base mem.Addr
	// Tag names the accessed variable for bug reports.
	Tag string
	Loc SourceLoc
	// Clock is the access's position in the event stream plus one: the
	// live runtime stamps it as it delivers the callback, and replay
	// derives the same value from the recorded sequence number. Tools
	// stamp it into shadow metadata and order reports by it, so a live run
	// and the replay of its recording record identical metadata. Zero means
	// unset (hand-built events); it is never serialized.
	Clock uint64 `json:"-"`
}

// SyncEvent reports a synchronization point.
type SyncEvent struct {
	Kind   SyncKind
	Task   TaskID
	Child  TaskID // SyncTaskCreate, SyncTaskEnd, SyncDependence
	Thread ThreadID
	Loc    SourceLoc
}

// AllocEvent reports a host allocation or deallocation (malloc/free level).
type AllocEvent struct {
	Free  bool
	Addr  mem.Addr
	Bytes uint64
	Tag   string
	Task  TaskID
	Loc   SourceLoc
}

// SourceLoc is a synthetic source location attached to events, standing in
// for the PC/stack information LLVM instrumentation provides.
type SourceLoc struct {
	File string
	Line int
	Func string
}

// IsZero reports whether the location is unset.
func (l SourceLoc) IsZero() bool { return l.File == "" && l.Line == 0 && l.Func == "" }

func (l SourceLoc) String() string {
	if l.IsZero() {
		return "<unknown>"
	}
	if l.Func == "" {
		return locFileLine(l)
	}
	return locFileLine(l) + " in " + l.Func
}

func locFileLine(l SourceLoc) string {
	if l.Line == 0 {
		return l.File
	}
	return l.File + ":" + itoa(l.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Tool is the interface analysis tools implement to observe the runtime.
// Embed NopTool to get no-op defaults.
//
// Every event source delivers callbacks one at a time, in one global
// order: the live runtime under its tool lock, the replay driver on one
// goroutine. Tools therefore keep their state with plain loads and stores
// and need no synchronization of their own. Accesses arrive in runs
// through Dispatcher.AccessBatch, each access stamped with its clock (its
// position in the order plus one), and a run is delivered before any later
// non-access callback, so a tool sees the same events with the same clocks
// in the same order as if each came alone. The live runtime delivers a run
// when the next non-access event happens, when the run is full, and before
// the program ends; so an access's analysis may follow its load, unless a
// registered tool asks for each access alone through an InlineAccess
// method, as core.Arbalest does with a repairer attached. Because the live
// runtime holds its lock for the length of a callback, a callback must not
// block on the program's threads or call back into the runtime; the one
// exception is the repair transfer (core.Repairer), which the runtime
// delivers in line.
type Tool interface {
	// Name returns the tool's short name for reports and tables.
	Name() string
	// OnDeviceInit fires when a device is registered, before any mapping.
	OnDeviceInit(DeviceInitEvent)
	// OnTargetBegin/OnTargetEnd bracket each device directive.
	OnTargetBegin(TargetEvent)
	OnTargetEnd(TargetEvent)
	// OnDataOp fires for every mapping operation.
	OnDataOp(DataOpEvent)
	// OnAccess fires for every instrumented application access, row by
	// row of each run for a tool that does not implement BatchTool.
	OnAccess(AccessEvent)
	// OnSync fires at task synchronization points.
	OnSync(SyncEvent)
	// OnAlloc fires for host allocations and frees.
	OnAlloc(AllocEvent)
}

// NopTool provides no-op implementations of every Tool callback.
type NopTool struct{}

// Name implements Tool.
func (NopTool) Name() string { return "nop" }

// OnDeviceInit implements Tool.
func (NopTool) OnDeviceInit(DeviceInitEvent) {}

// OnTargetBegin implements Tool.
func (NopTool) OnTargetBegin(TargetEvent) {}

// OnTargetEnd implements Tool.
func (NopTool) OnTargetEnd(TargetEvent) {}

// OnDataOp implements Tool.
func (NopTool) OnDataOp(DataOpEvent) {}

// OnAccess implements Tool.
func (NopTool) OnAccess(AccessEvent) {}

// OnSync implements Tool.
func (NopTool) OnSync(SyncEvent) {}

// OnAlloc implements Tool.
func (NopTool) OnAlloc(AllocEvent) {}

var _ Tool = NopTool{}

// Dispatcher fans events out to registered tools. The zero value is usable.
// It does no locking: the event source owning it serializes the calls.
type Dispatcher struct {
	tools []Tool
}

// Register adds a tool. Not safe for concurrent use with event dispatch;
// register tools before the program starts.
func (d *Dispatcher) Register(t Tool) { d.tools = append(d.tools, t) }

// Tools returns the registered tools.
func (d *Dispatcher) Tools() []Tool { return d.tools }

// Empty reports whether no tool is registered (lets the runtime skip
// instrumentation entirely for native runs).
func (d *Dispatcher) Empty() bool { return len(d.tools) == 0 }

// DeviceInit dispatches a DeviceInitEvent.
func (d *Dispatcher) DeviceInit(e DeviceInitEvent) {
	for _, t := range d.tools {
		t.OnDeviceInit(e)
	}
}

// TargetBegin dispatches entry to a device directive.
func (d *Dispatcher) TargetBegin(e TargetEvent) {
	for _, t := range d.tools {
		t.OnTargetBegin(e)
	}
}

// TargetEnd dispatches exit from a device directive.
func (d *Dispatcher) TargetEnd(e TargetEvent) {
	for _, t := range d.tools {
		t.OnTargetEnd(e)
	}
}

// DataOp dispatches a data-mapping operation.
func (d *Dispatcher) DataOp(e DataOpEvent) {
	for _, t := range d.tools {
		t.OnDataOp(e)
	}
}

// Sync dispatches a synchronization event.
func (d *Dispatcher) Sync(e SyncEvent) {
	for _, t := range d.tools {
		t.OnSync(e)
	}
}

// Alloc dispatches a host allocation event.
func (d *Dispatcher) Alloc(e AllocEvent) {
	for _, t := range d.tools {
		t.OnAlloc(e)
	}
}
