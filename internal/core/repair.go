package core

import (
	"repro/internal/interval"
	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/vsm"
)

// Repairer is the runtime capability the detector uses to repair stale
// accesses on the fly (paper §III-C): issue the memory transfer the
// application forgot, right before the offending read executes.
// *omp.Runtime implements it.
//
// The detector calls RepairTransfer only from inside its access callback.
// With a repairer attached it reports InlineAccess, so the live runtime
// delivers each access alone, before its load executes, rather than in
// runs. The runtime then delivers the repair's data-op in line, on the
// goroutine that already holds its tool lock, so the detector sees that
// event re-enter OnDataOp before the access callback returns.
type Repairer interface {
	RepairTransfer(dev ompt.DeviceID, hostAddr mem.Addr, bytes uint64, toDevice bool, task ompt.TaskID) bool
}

// AttachRepairer enables repair mode: detected stale accesses are still
// reported (annotated as repaired), but the runtime synchronizes the two
// copies before the read executes, so the application computes with correct
// data — the §III-C vision of an integrated analysis + repair OpenMP
// implementation. Uses of uninitialized memory cannot be repaired and are
// reported as usual.
//
// Attach the repairer after constructing the runtime and before Run:
//
//	a := core.New(core.Options{})
//	rt := omp.NewRuntime(cfg, a)
//	a.AttachRepairer(rt)
func (a *Arbalest) AttachRepairer(r Repairer) {
	a.repairer = r
}

// InlineAccess tells the live runtime whether the detector needs each
// access as it happens: a repair must run before the stale read's load
// executes, so it does once a repairer is attached.
func (a *Arbalest) InlineAccess() bool { return a.repairer != nil }

// repairStale issues the missing transfer for the aligned word the stale
// read touches. It reports whether the repair happened. The instrumentation
// callback fires before the application's load executes, so a successful
// repair means the read returns the up-to-date value.
func (a *Arbalest) repairStale(ovAddr mem.Addr, e ompt.AccessEvent, hostSide bool) bool {
	r := a.repairer
	if r == nil {
		return false
	}
	word := ovAddr.Align()
	if !hostSide {
		// Stale CV: push the host's value to the executing device.
		return r.RepairTransfer(e.Device, word, mem.WordSize, true, e.Task)
	}
	// Stale OV: pull from whichever device holds the valid CV.
	dev, ok := a.deviceWithValidCV(word)
	if !ok {
		return false
	}
	return r.RepairTransfer(dev, word, mem.WordSize, false, e.Task)
}

// deviceWithValidCV locates the device whose CV covers the word. In
// single-device mode the CV index identifies it; in multi-device mode the
// wide tuple's validity bits do.
func (a *Arbalest) deviceWithValidCV(word mem.Addr) (ompt.DeviceID, bool) {
	if a.multi {
		t := vsm.UnpackTuple(a.wideWords[a.wideKey(word)])
		for loc := 1; loc < 32; loc++ {
			if t.ValidAt(loc) {
				return ompt.DeviceID(loc - 1), true
			}
		}
		return 0, false
	}
	var found ompt.DeviceID
	ok := false
	a.cvs.Each(func(_ interval.Interval, entry *cvEntry) {
		if !ok && word >= entry.ov && word < entry.ov+mem.Addr(entry.bytes) {
			found, ok = entry.device, true
		}
	})
	return found, ok
}
