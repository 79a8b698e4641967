package omp

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// RepairTransfer performs the memory transfer a detected stale access was
// missing, implementing the repair scheme of paper §III-C: "when identifying
// data mapping issues resulting in USDs, the OpenMP runtime can carry out
// memory transfers between OV and CV to make their values consistent."
//
// The span [hostAddr, hostAddr+bytes) must lie inside a live mapping on
// device dev; toDevice selects the direction (OV -> CV when true). The
// transfer is observable by every registered tool as a normal data-op event,
// so the detector's state machine sees the copies become consistent. It
// returns false when no mapping covers the span (nothing to repair — e.g. a
// use of uninitialized memory, which no transfer can fix).
//
// Call it only from inside an access callback of a tool whose InlineAccess
// method reports true when Run starts (core.Arbalest's does once a
// repairer is attached). The runtime then delivers each access alone, as
// it happens and before its load executes, and the calling goroutine holds
// the runtime's tool lock: the repair's data-op is delivered in line on
// that goroutine, with the position after the access in the event order.
func (rt *Runtime) RepairTransfer(dev ompt.DeviceID, hostAddr mem.Addr, bytes uint64, toDevice bool, task ompt.TaskID) bool {
	if int(dev) < 0 || int(dev) >= len(rt.devices) {
		return false
	}
	d := rt.devices[dev]
	if d.unified {
		return false // nothing to reconcile
	}
	m := d.env.lookupContaining(hostAddr)
	if m == nil || !m.coversSpan(hostAddr, bytes) {
		return false
	}
	loc := ompt.SourceLoc{File: "<runtime-repair>", Func: fmt.Sprintf("repair(%s)", m.Tag)}
	if e, ok := rt.copyMapped(d, m, hostAddr, bytes, toDevice, task, loc); ok {
		rt.tools.dataOpHeld(e)
	}
	return true
}

// coversSpan reports whether [addr, addr+bytes) lies inside the mapping.
func (m *Mapping) coversSpan(addr mem.Addr, bytes uint64) bool {
	return addr >= m.OV && addr+mem.Addr(bytes) <= m.OV+mem.Addr(m.Bytes)
}
