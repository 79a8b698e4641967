package omp

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// MapType is the map-type of a map clause (paper Table I).
type MapType uint8

// The predefined map-types.
const (
	// MapTo copies OV to CV on entry (if the CV is created by this entry).
	MapTo MapType = iota
	// MapFrom allocates on entry, copies CV back to OV on exit when the
	// reference count drops to zero.
	MapFrom
	// MapToFrom combines MapTo and MapFrom.
	MapToFrom
	// MapAlloc allocates without any transfer.
	MapAlloc
	// MapRelease decrements the reference count without transfers.
	MapRelease
	// MapDelete forces the reference count to zero and frees the CV
	// without a transfer.
	MapDelete
)

func (t MapType) String() string {
	switch t {
	case MapTo:
		return "to"
	case MapFrom:
		return "from"
	case MapToFrom:
		return "tofrom"
	case MapAlloc:
		return "alloc"
	case MapRelease:
		return "release"
	case MapDelete:
		return "delete"
	}
	return "unknown"
}

// copiesOnEntry reports whether the map-type transfers OV->CV when the CV is
// first created (paper Table I, entry effect).
func (t MapType) copiesOnEntry() bool { return t == MapTo || t == MapToFrom }

// copiesOnExit reports whether the map-type transfers CV->OV when the
// reference count drops to zero (paper Table I, exit effect).
func (t MapType) copiesOnExit() bool { return t == MapFrom || t == MapToFrom }

// Map is one map clause entry: a mapped variable or array section plus a
// map-type.
type Map struct {
	Buf  *Buffer
	Type MapType
	// Lo/Hi select an element section [Lo, Hi); Hi == 0 means the whole
	// buffer. Sections model `map(to: a[lo:len])`.
	Lo, Hi int
}

// span returns the host byte range of the mapped section.
func (m Map) span() (mem.Addr, uint64) {
	lo, hi := m.Lo, m.Hi
	if hi == 0 {
		lo, hi = 0, m.Buf.elems
	}
	return m.Buf.elemAddr(lo), uint64(hi-lo) * m.Buf.elem
}

// To maps the whole buffer with map-type to.
func To(b *Buffer) Map { return Map{Buf: b, Type: MapTo} }

// From maps the whole buffer with map-type from.
func From(b *Buffer) Map { return Map{Buf: b, Type: MapFrom} }

// ToFrom maps the whole buffer with map-type tofrom.
func ToFrom(b *Buffer) Map { return Map{Buf: b, Type: MapToFrom} }

// Alloc maps the whole buffer with map-type alloc.
func Alloc(b *Buffer) Map { return Map{Buf: b, Type: MapAlloc} }

// Release maps the whole buffer with map-type release.
func Release(b *Buffer) Map { return Map{Buf: b, Type: MapRelease} }

// Delete maps the whole buffer with map-type delete.
func Delete(b *Buffer) Map { return Map{Buf: b, Type: MapDelete} }

// Section restricts a map entry to elements [lo, hi).
func (m Map) Section(lo, hi int) Map { m.Lo, m.Hi = lo, hi; return m }

// Mapping is one live entry of a device's data environment: the association
// between an OV range and its CV, with the reference count of Table I.
type Mapping struct {
	Tag      string
	OV       mem.Addr
	CV       mem.Addr
	Bytes    uint64
	RefCount int
}

// TranslateToCV converts a host address inside (or, for overflow bugs,
// beyond) the OV range into the corresponding device address.
func (m *Mapping) TranslateToCV(ov mem.Addr) mem.Addr {
	return m.CV + (ov - m.OV)
}

// TranslateToOV converts a device address back to the host address.
func (m *Mapping) TranslateToOV(cv mem.Addr) mem.Addr {
	return m.OV + (cv - m.CV)
}

// dataEnv is a device's data environment: the set of live mappings.
type dataEnv struct {
	mu       sync.Mutex
	mappings []*Mapping
}

func newDataEnv() *dataEnv { return &dataEnv{} }

// lookupExact finds the mapping with exactly the given OV base and size.
// Reference counting in Table I is keyed by the mapped variable, which the
// runtime identifies by its OV range.
func (e *dataEnv) lookupExact(ov mem.Addr, bytes uint64) *Mapping {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.mappings {
		if m.OV == ov && m.Bytes == bytes {
			return m
		}
	}
	return nil
}

// lookupContaining finds the mapping whose OV range contains addr.
func (e *dataEnv) lookupContaining(addr mem.Addr) *Mapping {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.mappings {
		if addr >= m.OV && addr < m.OV+mem.Addr(m.Bytes) {
			return m
		}
	}
	return nil
}

// lookupOverlapping finds the first mapping overlapping [addr, addr+bytes).
func (e *dataEnv) lookupOverlapping(addr mem.Addr, bytes uint64) *Mapping {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.mappings {
		if addr < m.OV+mem.Addr(m.Bytes) && m.OV < addr+mem.Addr(bytes) {
			return m
		}
	}
	return nil
}

func (e *dataEnv) add(m *Mapping) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mappings = append(e.mappings, m)
}

func (e *dataEnv) remove(m *Mapping) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.mappings {
		if x == m {
			e.mappings = append(e.mappings[:i], e.mappings[i+1:]...)
			return
		}
	}
}

// snapshot returns a copy of the live mappings (for tests and tools).
func (e *dataEnv) snapshot() []*Mapping {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Mapping, len(e.mappings))
	copy(out, e.mappings)
	return out
}

// Mappings exposes the device's live mappings (primarily for tests).
func (d *Device) Mappings() []*Mapping { return d.env.snapshot() }

// mapEnter applies the entry effect of one map clause (paper Table I) on
// device d, emitting data-op events for the tools. It is executed in the
// context of task. implicit marks runtime-initiated mappings (declare-target
// globals), reported with the Implicit flag the paper proposed for OMPT.
func (rt *Runtime) mapEnter(d *Device, mp Map, task ompt.TaskID, loc ompt.SourceLoc, implicit bool) {
	ov, bytes := mp.span()
	if bytes == 0 {
		return
	}
	if mp.Type == MapRelease || mp.Type == MapDelete {
		// Release/delete have no entry effect; they are exit-only types
		// used with target exit data (handled in mapExit).
		return
	}
	if d.unified {
		// Unified memory: CV and OV share storage; no allocation or
		// transfer happens, but the mapping is still recorded so that
		// present-checks and reference counting behave identically.
		m := d.env.lookupExact(ov, bytes)
		if m == nil {
			m = &Mapping{Tag: mp.Buf.tag, OV: ov, CV: ov, Bytes: bytes, RefCount: 1}
			d.env.add(m)
		} else {
			m.RefCount++
		}
		return
	}

	m := d.env.lookupExact(ov, bytes)
	if m == nil {
		// !exist(CV): new CV [; memcpy(CV, OV) for to/tofrom]; ref = 1.
		cv, err := d.space.Alloc(bytes, mp.Buf.tag)
		if err != nil {
			rt.fault(fmt.Errorf("omp: mapping %s: %w", mp.Buf.tag, err))
			return
		}
		m = &Mapping{Tag: mp.Buf.tag, OV: ov, CV: cv, Bytes: bytes, RefCount: 1}
		d.env.add(m)
		rt.tools.DataOp(ompt.DataOpEvent{
			Kind: ompt.OpAlloc, Device: d.id, Task: task, Tag: mp.Buf.tag,
			HostAddr: ov, DevAddr: cv, Bytes: bytes, Implicit: implicit, Loc: loc,
		})
		if mp.Type.copiesOnEntry() {
			if e, ok := rt.copyMapped(d, m, ov, bytes, true, task, loc); ok {
				e.Implicit = implicit
				rt.tools.DataOp(e)
			}
		}
	} else {
		// exist(CV): ref += 1, no transfer (Table I).
		m.RefCount++
	}
}

// mapExit applies the exit effect of one map clause (paper Table I).
func (rt *Runtime) mapExit(d *Device, mp Map, task ompt.TaskID, loc ompt.SourceLoc) {
	ov, bytes := mp.span()
	if bytes == 0 {
		return
	}
	m := d.env.lookupExact(ov, bytes)
	if m == nil {
		// Exiting a mapping that does not exist: the spec makes this a
		// no-op for release/delete and undefined otherwise; we record a
		// fault for the undefined cases to aid debugging.
		if mp.Type != MapRelease && mp.Type != MapDelete {
			rt.fault(fmt.Errorf("omp: exit for unmapped variable %s", mp.Buf.tag))
		}
		return
	}
	if mp.Type == MapDelete {
		m.RefCount = 0
	} else {
		m.RefCount--
		if m.RefCount < 0 {
			m.RefCount = 0
		}
	}
	if m.RefCount > 0 {
		return
	}
	if d.unified {
		d.env.remove(m)
		return
	}
	if mp.Type.copiesOnExit() {
		rt.transferFromDevice(d, m, ov, bytes, task, loc)
	}
	d.env.remove(m)
	rt.tools.DataOp(ompt.DataOpEvent{
		Kind: ompt.OpDelete, Device: d.id, Task: task, Tag: m.Tag,
		HostAddr: m.OV, DevAddr: m.CV, Bytes: m.Bytes, Loc: loc,
	})
	if err := d.space.Free(m.CV); err != nil {
		rt.fault(err)
	}
}

// transferToDevice copies [ov, ov+bytes) into the mapping's CV — the paper's
// update_target operation.
func (rt *Runtime) transferToDevice(d *Device, m *Mapping, ov mem.Addr, bytes uint64, task ompt.TaskID, loc ompt.SourceLoc) {
	if e, ok := rt.copyMapped(d, m, ov, bytes, true, task, loc); ok {
		rt.tools.DataOp(e)
	}
}

// transferFromDevice copies the mapping's CV back into [ov, ov+bytes) — the
// paper's update_host operation.
func (rt *Runtime) transferFromDevice(d *Device, m *Mapping, ov mem.Addr, bytes uint64, task ompt.TaskID, loc ompt.SourceLoc) {
	if e, ok := rt.copyMapped(d, m, ov, bytes, false, task, loc); ok {
		rt.tools.DataOp(e)
	}
}

// copyMapped copies between [ov, ov+bytes) and the mapping's CV, towards
// the device when toDevice is set, and returns the data-op event that
// reports the copy. ok is false when nothing was copied: unified memory
// has one copy, and a fault is recorded instead.
func (rt *Runtime) copyMapped(d *Device, m *Mapping, ov mem.Addr, bytes uint64, toDevice bool, task ompt.TaskID, loc ompt.SourceLoc) (e ompt.DataOpEvent, ok bool) {
	if d.unified {
		return e, false
	}
	cv := m.TranslateToCV(ov)
	kind := ompt.OpTransferToDevice
	var err error
	if toDevice {
		err = mem.Copy(d.space, cv, rt.host, ov, bytes)
	} else {
		kind = ompt.OpTransferFromDevice
		err = mem.Copy(rt.host, ov, d.space, cv, bytes)
	}
	if err != nil {
		rt.fault(err)
		return e, false
	}
	return ompt.DataOpEvent{
		Kind: kind, Device: d.id, Task: task, Tag: m.Tag,
		HostAddr: ov, DevAddr: cv, Bytes: bytes, Loc: loc,
	}, true
}
