package ompt

import (
	"testing"

	"repro/internal/mem"
)

// capture counts events per callback.
type capture struct {
	NopTool
	inits, targets, ends, dataOps, accesses, syncs, allocs int
}

func (c *capture) Name() string                 { return "capture" }
func (c *capture) OnDeviceInit(DeviceInitEvent) { c.inits++ }
func (c *capture) OnTargetBegin(TargetEvent)    { c.targets++ }
func (c *capture) OnTargetEnd(TargetEvent)      { c.ends++ }
func (c *capture) OnDataOp(DataOpEvent)         { c.dataOps++ }
func (c *capture) OnAccess(AccessEvent)         { c.accesses++ }
func (c *capture) OnSync(SyncEvent)             { c.syncs++ }
func (c *capture) OnAlloc(AllocEvent)           { c.allocs++ }

func TestDispatcherFansOut(t *testing.T) {
	var d Dispatcher
	if !d.Empty() {
		t.Error("fresh dispatcher not empty")
	}
	a, b := &capture{}, &capture{}
	d.Register(a)
	d.Register(b)
	if d.Empty() || len(d.Tools()) != 2 {
		t.Fatal("registration failed")
	}
	d.DeviceInit(DeviceInitEvent{})
	d.TargetBegin(TargetEvent{})
	d.TargetEnd(TargetEvent{})
	d.DataOp(DataOpEvent{})
	var run AccessBatch
	run.Append(&AccessEvent{})
	run.Append(&AccessEvent{})
	d.AccessBatch(&run)
	d.Sync(SyncEvent{})
	d.Alloc(AllocEvent{})
	for _, c := range []*capture{a, b} {
		if c.inits != 1 || c.targets != 1 || c.ends != 1 || c.dataOps != 1 ||
			c.accesses != 2 || c.syncs != 1 || c.allocs != 1 {
			t.Errorf("event counts: %+v", *c)
		}
	}
}

func TestNopToolIsComplete(t *testing.T) {
	var tool Tool = NopTool{}
	tool.OnDeviceInit(DeviceInitEvent{})
	tool.OnTargetBegin(TargetEvent{})
	tool.OnTargetEnd(TargetEvent{})
	tool.OnDataOp(DataOpEvent{})
	tool.OnAccess(AccessEvent{})
	tool.OnSync(SyncEvent{})
	tool.OnAlloc(AllocEvent{})
	if tool.Name() != "nop" {
		t.Errorf("Name = %q", tool.Name())
	}
}

func TestSourceLocString(t *testing.T) {
	cases := []struct {
		loc  SourceLoc
		want string
	}{
		{SourceLoc{}, "<unknown>"},
		{SourceLoc{File: "a.c", Line: 12, Func: "main"}, "a.c:12 in main"},
		{SourceLoc{File: "a.c", Line: 12}, "a.c:12"},
		{SourceLoc{File: "a.c"}, "a.c"},
	}
	for _, c := range cases {
		if got := c.loc.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.loc, got, c.want)
		}
	}
	if (SourceLoc{}).IsZero() != true {
		t.Error("zero loc not IsZero")
	}
	if (SourceLoc{File: "x"}).IsZero() {
		t.Error("nonzero loc IsZero")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[TargetKind]string{
		KindTarget: "target", KindTargetData: "target data",
		KindTargetEnterData: "target enter data", KindTargetExitData: "target exit data",
		KindTargetUpdate: "target update",
	} {
		if k.String() != want {
			t.Errorf("TargetKind %d = %q, want %q", k, k.String(), want)
		}
	}
	for k, want := range map[DataOpKind]string{
		OpAlloc: "alloc", OpDelete: "delete",
		OpTransferToDevice: "to-device", OpTransferFromDevice: "from-device",
	} {
		if k.String() != want {
			t.Errorf("DataOpKind %d = %q, want %q", k, k.String(), want)
		}
	}
	for k, want := range map[SyncKind]string{
		SyncTaskCreate: "task-create", SyncTaskBegin: "task-begin",
		SyncTaskEnd: "task-end", SyncTaskWait: "task-wait", SyncDependence: "dependence",
	} {
		if k.String() != want {
			t.Errorf("SyncKind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestItoa(t *testing.T) {
	for n, want := range map[int]string{0: "0", 7: "7", 145: "145", -3: "-3", 1000000: "1000000"} {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestAccessEventFields(t *testing.T) {
	e := AccessEvent{Addr: mem.Addr(0x1000), Size: 8, Write: true, Device: HostDevice, Base: mem.Addr(0x1000), Tag: "x"}
	if e.Device != HostDevice || !e.Write || e.Tag != "x" {
		t.Errorf("AccessEvent literal mangled: %+v", e)
	}
}

// TestAppendBuildsRun: a run built with Append rebuilds every event with
// At, interns each distinct site once, and keeps its site table, and so
// every ordinal a consumer cached, across Reset.
func TestAppendBuildsRun(t *testing.T) {
	loc := SourceLoc{File: "k.c", Line: 3, Func: "kernel"}
	evs := []AccessEvent{
		{Addr: 0x10, Size: 8, Write: true, Device: 0, Task: 2, Thread: 3, Base: 0x10, Tag: "a", Loc: loc, Clock: 5},
		{Addr: 0x18, Size: 4, Device: HostDevice, Task: 1, Thread: 1, Base: 0x10, Tag: "b", Loc: loc, Clock: 6},
		{Addr: 0x20, Size: 8, Device: 0, Task: 2, Thread: 3, Base: 0x10, Tag: "a", Loc: loc, Clock: 7},
	}
	var b AccessBatch
	for i := range evs {
		b.Append(&evs[i])
	}
	if b.Len() != len(evs) || len(b.SiteTags) != 2 || len(b.SiteLocs) != 2 {
		t.Fatalf("len %d with %d sites, want 3 with 2", b.Len(), len(b.SiteTags))
	}
	for i, want := range evs {
		if got := b.At(i); got != want {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	b.Reset()
	if b.Len() != 0 || len(b.SiteTags) != 2 {
		t.Fatalf("after Reset: len %d with %d sites, want 0 with 2", b.Len(), len(b.SiteTags))
	}
	b.Append(&evs[1])
	if b.Sites[0] != 1 || b.At(0) != evs[1] {
		t.Errorf("site %d after Reset, want the ordinal it had before (1)", b.Sites[0])
	}
}
