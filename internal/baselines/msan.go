package baselines

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/report"
)

// MSan is the MemorySanitizer analogue: every allocation starts poisoned
// (undefined), stores unpoison the written bytes, and a load of any poisoned
// byte is a use of uninitialized memory. Two real-world limitations are
// modeled:
//
//   - Host<->device transfers mark their destination defined regardless of
//     the source's definedness: the runtime's transfer path (staging
//     buffers, driver copies) is invisible to MSan's compiler
//     instrumentation, so poison cannot propagate across it. This is why
//     real MSan missed DRACC_OMP_034's kernel-side UUM (paper §VI-C).
//   - There is no bounds checking, so buffer overflows escape.
type MSan struct {
	ompt.NopTool
	sink   *report.Sink
	blocks *blockTable
}

// NewMSan creates an MSan analogue reporting into sink (fresh when nil).
func NewMSan(sink *report.Sink) *MSan {
	if sink == nil {
		sink = report.NewSink()
	}
	return &MSan{sink: sink, blocks: newBlockTable()}
}

// Name implements ompt.Tool.
func (m *MSan) Name() string { return "MSan" }

// Sink returns the report sink.
func (m *MSan) Sink() *report.Sink { return m.sink }

// Reports returns the recorded reports.
func (m *MSan) Reports() []*report.Report { return m.sink.Reports() }

// ShadowBytes returns the peak tracked-state footprint. MSan's real shadow
// is 1:1 with application memory.
func (m *MSan) ShadowBytes() uint64 { return m.blocks.peak() }

// OnAlloc implements ompt.Tool: poison fresh host allocations.
func (m *MSan) OnAlloc(e ompt.AllocEvent) {
	if e.Free {
		m.blocks.remove(e.Addr)
		return
	}
	m.blocks.add(e.Addr, e.Bytes, e.Tag, e.Loc, true, false)
}

// OnDataOp implements ompt.Tool.
func (m *MSan) OnDataOp(e ompt.DataOpEvent) {
	switch e.Kind {
	case ompt.OpAlloc:
		// CV allocation = malloc on the virtual accelerator: poisoned.
		m.blocks.add(e.DevAddr, e.Bytes, e.Tag, e.Loc, true, false)
	case ompt.OpDelete:
		m.blocks.remove(e.DevAddr)
	case ompt.OpTransferToDevice:
		// Laundering: the transfer defines the destination.
		if b := m.blocks.find(e.DevAddr); b != nil {
			b.markDefined(e.DevAddr, e.Bytes, true)
		}
	case ompt.OpTransferFromDevice:
		if b := m.blocks.find(e.HostAddr); b != nil {
			b.markDefined(e.HostAddr, e.Bytes, true)
		}
	}
}

// OnAccess implements ompt.Tool: the poison check.
func (m *MSan) OnAccess(e ompt.AccessEvent) {
	if b := m.check(e.Addr, e.Size, e.Write); b != nil {
		m.report(e, b)
	}
}

// OnAccessBatch implements ompt.BatchTool: the poison check row by row,
// rebuilding an event only to report it.
func (m *MSan) OnAccessBatch(r *ompt.AccessBatch) {
	n := r.Len()
	sizes, writes := r.Sizes[:n], r.Writes[:n]
	for i, addr := range r.Addrs {
		if b := m.check(addr, sizes[i], writes[i]); b != nil {
			m.report(r.At(i), b)
		}
	}
}

// check applies one access: a store unpoisons its bytes. It returns the
// block of a load that touches poisoned bytes, nil otherwise.
func (m *MSan) check(addr mem.Addr, size uint64, write bool) *block {
	b := m.blocks.find(addr)
	if b == nil || !b.contains(addr, size) {
		// Out of bounds: MSan has no redzone concept and its shadow for
		// unrelated memory reads as defined — silently ignored.
		return nil
	}
	if write {
		b.markDefined(addr, size, true)
		return nil
	}
	if b.allDefined(addr, size) {
		return nil
	}
	return b
}

// report records a load of poisoned bytes of block b.
func (m *MSan) report(e ompt.AccessEvent, b *block) {
	m.sink.AddAt(e.Clock, &report.Report{
		Tool:       m.Name(),
		Kind:       report.UUM,
		Var:        e.Tag,
		Addr:       e.Addr,
		Size:       e.Size,
		Write:      false,
		Device:     e.Device,
		Thread:     e.Thread,
		Loc:        e.Loc,
		Detail:     fmt.Sprintf("Load of %d bytes from %q touches poisoned (never stored) memory.", e.Size, e.Tag),
		AllocLoc:   b.loc,
		AllocBytes: b.bytes,
	})
}

var _ ompt.Tool = (*MSan)(nil)
