package omp

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// busProbe checks the tool bus's delivery contract from the tool's side.
// It counts every callback and every access row it is given; since the
// bus delivers one callback at a time in its one global order, each row's
// clock and each data operation's clock must be that count plus one at
// its turn. With repair set it asks for accesses one at a time, as a
// detector with a repairer attached does, and repairs every device read.
type busProbe struct {
	ompt.NopTool
	t      *testing.T
	rt     *Runtime
	repair bool
	word   mem.Addr // the host word a repair transfers

	seen    uint64 // callbacks and rows so far
	rows    int
	runs    int
	maxRun  int
	repairs int
}

func (p *busProbe) Name() string                      { return "bus-probe" }
func (p *busProbe) InlineAccess() bool                { return p.repair }
func (p *busProbe) OnDeviceInit(ompt.DeviceInitEvent) { p.seen++ }
func (p *busProbe) OnTargetBegin(ompt.TargetEvent)    { p.seen++ }
func (p *busProbe) OnTargetEnd(ompt.TargetEvent)      { p.seen++ }
func (p *busProbe) OnSync(ompt.SyncEvent)             { p.seen++ }
func (p *busProbe) OnAlloc(ompt.AllocEvent)           { p.seen++ }

func (p *busProbe) OnDataOp(e ompt.DataOpEvent) {
	p.seen++
	if e.Clock != p.seen {
		p.t.Errorf("data op %s has clock %d at position %d", e.Kind, e.Clock, p.seen)
	}
}

func (p *busProbe) OnAccess(ompt.AccessEvent) {
	p.t.Error("an access was delivered alone, not in a run")
}

func (p *busProbe) OnAccessBatch(b *ompt.AccessBatch) {
	p.runs++
	p.maxRun = max(p.maxRun, b.Len())
	for i := range b.Len() {
		p.seen++
		p.rows++
		if b.Clocks[i] != p.seen {
			p.t.Errorf("row %d of a %d-row run has clock %d at position %d", i, b.Len(), b.Clocks[i], p.seen)
		}
		if p.repair && b.Devices[i] != ompt.HostDevice && !b.Writes[i] &&
			p.rt.RepairTransfer(b.Devices[i], p.word, mem.WordSize, true, b.Tasks[i]) {
			p.repairs++
		}
	}
}

// TestBusDeliversRunsInOrder: four threads and nowait kernels emit
// accesses concurrently, and every tool still sees one order. Accesses
// arrive in runs of at most 256 rows, numbered consecutively in that
// order; nothing is pending when Run returns, also when the body fails;
// and with a repairer attached every run is one access long, the repair
// taking the next position in line.
func TestBusDeliversRunsInOrder(t *testing.T) {
	const n, maxRun = 300, 256
	errBody := errors.New("body failed")
	for _, tc := range []struct {
		name   string
		repair bool
		err    error
	}{
		{"runs", false, nil},
		{"runs-body-error", false, errBody},
		{"repair", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &busProbe{t: t, repair: tc.repair}
			rt := NewRuntime(Config{NumThreads: 4}, p)
			p.rt = rt
			var accesses atomic.Int64
			err := rt.Run(func(c *Context) error {
				a := c.AllocF64(n, "a")
				b := c.AllocF64(n, "b")
				p.word = a.Addr()
				for i := 0; i < n; i++ {
					c.StoreF64(a, i, float64(i))
				}
				accesses.Add(n)
				c.TargetEnterData(Opts{Maps: []Map{To(a), Alloc(b)}})
				for k := 0; k < 4; k++ {
					c.Target(Opts{Nowait: true, DependsIn: []*Buffer{a}}, func(k *Context) {
						k.ParallelFor(n, func(w *Context, i int) {
							w.LoadF64(a, i)
							accesses.Add(1)
						})
					})
				}
				c.Target(Opts{Nowait: true, DependsIn: []*Buffer{a}, DependsOut: []*Buffer{b}}, func(k *Context) {
					k.ParallelFor(n, func(w *Context, i int) {
						w.StoreF64(b, i, w.LoadF64(a, i))
						accesses.Add(2)
					})
				})
				c.TaskWait()
				c.TargetExitData(Opts{Maps: []Map{From(b), Release(a)}})
				// Accesses with no callback after them: only the end of
				// Run delivers them.
				for i := 0; i < n; i++ {
					c.LoadF64(b, i)
				}
				accesses.Add(n)
				return tc.err
			})
			if !errors.Is(err, tc.err) {
				t.Fatalf("Run = %v, want %v", err, tc.err)
			}
			if got, want := p.rows, int(accesses.Load()); got != want {
				t.Errorf("tools saw %d accesses when Run returned, want %d", got, want)
			}
			if p.runs == 0 {
				t.Fatal("no run was delivered")
			}
			if p.maxRun > maxRun {
				t.Errorf("a run held %d accesses, want at most %d", p.maxRun, maxRun)
			}
			if tc.repair {
				if p.maxRun != 1 {
					t.Errorf("with a repairer attached a run held %d accesses, want 1", p.maxRun)
				}
				if p.repairs == 0 {
					t.Error("no device read was repaired")
				}
			} else if p.maxRun < maxRun {
				t.Errorf("longest run %d accesses, want runs filled to %d", p.maxRun, maxRun)
			}
		})
	}
}
