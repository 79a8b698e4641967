package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/report"
)

// runRepaired executes body with repair mode enabled and returns (detector,
// value channel results are checked inside body).
func runRepaired(t *testing.T, cfg omp.Config, body func(c *omp.Context)) *Arbalest {
	t.Helper()
	a := New(Options{})
	rt := omp.NewRuntime(cfg, a)
	a.AttachRepairer(rt)
	if err := rt.Run(func(c *omp.Context) error {
		body(c)
		return nil
	}); err != nil {
		t.Logf("runtime fault: %v", err)
	}
	return a
}

// TestRepairStaleHostRead: the Fig. 2 bug with repair enabled — the read is
// reported AND returns the device's value because the runtime issued the
// missing copy-back first.
func TestRepairStaleHostRead(t *testing.T) {
	a := runRepaired(t, omp.Config{NumThreads: 1}, func(c *omp.Context) {
		v := c.AllocI64(1, "a")
		c.StoreI64(v, 0, 1)
		c.TargetData(omp.Opts{Maps: []omp.Map{omp.To(v)}}, func(c *omp.Context) {
			c.Target(omp.Opts{}, func(k *omp.Context) {
				k.StoreI64(v, 0, 2)
			})
			// BUG: missing update from — but repair mode fixes the value.
			if got := c.At("rep.go", 5, "main").LoadI64(v, 0); got != 2 {
				t.Errorf("repaired read = %d, want 2 (the device's value)", got)
			}
			// The repaired word is now consistent: a second read is clean.
			if got := c.At("rep.go", 7, "main").LoadI64(v, 0); got != 2 {
				t.Errorf("post-repair read = %d", got)
			}
		})
	})
	if a.sink.CountKind(report.USD) != 1 {
		t.Fatalf("%d USD reports, want exactly 1 (repair does not silence diagnosis)", a.sink.CountKind(report.USD))
	}
	if !strings.Contains(a.Reports()[0].Detail, "repaired") {
		t.Errorf("report not annotated as repaired: %s", a.Reports()[0].Detail)
	}
}

// TestRepairStaleDeviceRead: the mirror direction — a kernel reads a CV made
// stale by a host write; repair pushes the host value down first.
func TestRepairStaleDeviceRead(t *testing.T) {
	a := runRepaired(t, omp.Config{NumThreads: 1}, func(c *omp.Context) {
		v := c.AllocI64(1, "a")
		c.StoreI64(v, 0, 1)
		c.TargetData(omp.Opts{Maps: []omp.Map{omp.To(v)}}, func(c *omp.Context) {
			c.StoreI64(v, 0, 7) // CV now stale
			c.Target(omp.Opts{}, func(k *omp.Context) {
				if got := k.At("rep.go", 6, "kernel").LoadI64(v, 0); got != 7 {
					t.Errorf("repaired kernel read = %d, want 7", got)
				}
			})
		})
	})
	if a.sink.CountKind(report.USD) != 1 {
		t.Errorf("%d USD reports, want 1", a.sink.CountKind(report.USD))
	}
}

// TestRepairCannotFixUUM: a use of uninitialized memory has no valid copy to
// transfer; it is reported unrepaired and the read still returns garbage.
func TestRepairCannotFixUUM(t *testing.T) {
	a := runRepaired(t, omp.Config{NumThreads: 1}, func(c *omp.Context) {
		v := c.AllocI64(1, "a")
		c.StoreI64(v, 0, 5)
		c.Target(omp.Opts{Maps: []omp.Map{omp.Alloc(v)}}, func(k *omp.Context) {
			_ = k.At("rep.go", 4, "kernel").LoadI64(v, 0)
		})
	})
	if a.sink.CountKind(report.UUM) != 1 {
		t.Fatalf("%d UUM reports, want 1", a.sink.CountKind(report.UUM))
	}
	if strings.Contains(a.Reports()[0].Detail, "repaired") {
		t.Error("UUM report falsely claims repair")
	}
}

// TestRepairMultiDevice: repair locates the device holding the valid CV via
// the wide tuple's validity bits.
func TestRepairMultiDevice(t *testing.T) {
	a := runRepaired(t, omp.Config{NumDevices: 2, NumThreads: 1}, func(c *omp.Context) {
		v := c.AllocI64(1, "a")
		c.StoreI64(v, 0, 1)
		c.TargetEnterData(omp.Opts{Device: 1, Maps: []omp.Map{omp.To(v)}})
		c.Target(omp.Opts{Device: 1}, func(k *omp.Context) {
			k.StoreI64(v, 0, 9)
		})
		// Stale host read; the valid CV lives on device 1.
		if got := c.At("rep.go", 8, "main").LoadI64(v, 0); got != 9 {
			t.Errorf("repaired read = %d, want 9 (from device 1)", got)
		}
		c.TargetExitData(omp.Opts{Device: 1, Maps: []omp.Map{omp.Release(v)}})
	})
	if a.sink.CountKind(report.USD) != 1 {
		t.Errorf("%d USD reports, want 1", a.sink.CountKind(report.USD))
	}
}

// TestRepairDisabledByDefault: without AttachRepairer the stale read keeps
// its stale value.
func TestRepairDisabledByDefault(t *testing.T) {
	a := New(Options{})
	rt := omp.NewRuntime(omp.Config{NumThreads: 1}, a)
	_ = rt.Run(func(c *omp.Context) error {
		v := c.AllocI64(1, "a")
		c.StoreI64(v, 0, 1)
		c.TargetData(omp.Opts{Maps: []omp.Map{omp.To(v)}}, func(c *omp.Context) {
			c.Target(omp.Opts{}, func(k *omp.Context) {
				k.StoreI64(v, 0, 2)
			})
			if got := c.At("rep.go", 5, "main").LoadI64(v, 0); got != 1 {
				t.Errorf("unrepaired read = %d, want stale 1", got)
			}
		})
		return nil
	})
	if a.sink.CountKind(report.USD) != 1 {
		t.Errorf("%d USD reports, want 1", a.sink.CountKind(report.USD))
	}
}

// countingRepairer counts the repairs the runtime carried out.
type countingRepairer struct {
	rt       *omp.Runtime
	repaired atomic.Int64
}

func (r *countingRepairer) RepairTransfer(dev ompt.DeviceID, hostAddr mem.Addr, bytes uint64, toDevice bool, task ompt.TaskID) bool {
	ok := r.rt.RepairTransfer(dev, hostAddr, bytes, toDevice, task)
	if ok {
		r.repaired.Add(1)
	}
	return ok
}

// TestRepairUnderConcurrency: repair re-enters the runtime from inside an
// access callback, which the runtime delivers under its tool lock. With
// four threads reading stale words at once, in a device kernel and then on
// the host, the run must finish (no self-deadlock), every stale read must
// be repaired and return the up-to-date value, and the reports must say so.
func TestRepairUnderConcurrency(t *testing.T) {
	const n = 512
	a := New(Options{})
	rt := omp.NewRuntime(omp.Config{NumThreads: 4}, a)
	rep := &countingRepairer{rt: rt}
	a.AttachRepairer(rep)
	var wrong atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *omp.Context) error {
			v := c.AllocI64(n, "v")
			for i := 0; i < n; i++ {
				c.StoreI64(v, i, 1)
			}
			c.TargetData(omp.Opts{Maps: []omp.Map{omp.To(v)}}, func(c *omp.Context) {
				for i := 0; i < n; i++ {
					c.StoreI64(v, i, int64(100+i)) // every CV word is now stale
				}
				c.Target(omp.Opts{}, func(k *omp.Context) {
					k.ParallelFor(n, func(w *omp.Context, i int) {
						if w.At("repc.go", 10, "kernel").LoadI64(v, i) != int64(100+i) {
							wrong.Add(1)
						}
						w.At("repc.go", 11, "kernel").StoreI64(v, i, int64(200+i)) // OV now stale
					})
				})
				c.ParallelFor(n, func(w *omp.Context, i int) {
					if w.At("repc.go", 14, "main").LoadI64(v, i) != int64(200+i) {
						wrong.Add(1)
					}
				})
			})
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runtime fault: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("repair under concurrency did not finish: the repair transfer re-entered the tool lock")
	}
	if w := wrong.Load(); w != 0 {
		t.Errorf("%d of %d reads returned a stale value", w, 2*n)
	}
	if got := rep.repaired.Load(); got != 2*n {
		t.Errorf("%d repairs, want one per stale read (%d)", got, 2*n)
	}
	if got := a.sink.CountKind(report.USD); got != 2 {
		t.Fatalf("%d USD reports, want 2 (one per stale read site)", got)
	}
	for _, r := range a.Reports() {
		if !strings.Contains(r.Detail, "repaired") {
			t.Errorf("report at %s not annotated as repaired: %s", r.Loc, r.Detail)
		}
	}
}
