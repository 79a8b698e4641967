package baselines

import (
	"fmt"

	"repro/internal/ompt"
	"repro/internal/report"
)

// ASan is the AddressSanitizer analogue: redzone-style bounds checking
// around every tracked allocation, no definedness tracking. It detects
// accesses outside any live block — including the data-mapping buffer
// overflows of DRACC — and use-after-free, but is blind to uninitialized
// and stale data.
type ASan struct {
	ompt.NopTool
	sink   *report.Sink
	blocks *blockTable
}

// NewASan creates an ASan analogue reporting into sink (fresh when nil).
func NewASan(sink *report.Sink) *ASan {
	if sink == nil {
		sink = report.NewSink()
	}
	return &ASan{sink: sink, blocks: newBlockTable()}
}

// Name implements ompt.Tool.
func (a *ASan) Name() string { return "ASan" }

// Sink returns the report sink.
func (a *ASan) Sink() *report.Sink { return a.sink }

// Reports returns the recorded reports.
func (a *ASan) Reports() []*report.Report { return a.sink.Reports() }

// ShadowBytes returns the peak tracked-state footprint.
func (a *ASan) ShadowBytes() uint64 {
	// ASan's shadow is 1 byte per 8 application bytes plus redzones; the
	// block table itself stands in for the redzone metadata.
	return a.blocks.peak() / 8 * 2
}

// OnAlloc implements ompt.Tool: track host allocations.
func (a *ASan) OnAlloc(e ompt.AllocEvent) {
	if e.Free {
		a.blocks.remove(e.Addr)
		return
	}
	a.blocks.add(e.Addr, e.Bytes, e.Tag, e.Loc, false, false)
}

// OnDataOp implements ompt.Tool: with the host as the offload target, CV
// allocations are plain mallocs ASan's interceptors see.
func (a *ASan) OnDataOp(e ompt.DataOpEvent) {
	switch e.Kind {
	case ompt.OpAlloc:
		a.blocks.add(e.DevAddr, e.Bytes, e.Tag, e.Loc, false, false)
	case ompt.OpDelete:
		a.blocks.remove(e.DevAddr)
	}
}

// OnAccess implements ompt.Tool: the redzone check.
func (a *ASan) OnAccess(e ompt.AccessEvent) {
	if b := a.blocks.find(e.Addr); b == nil || !b.contains(e.Addr, e.Size) {
		a.report(e, b)
	}
}

// OnAccessBatch implements ompt.BatchTool: the redzone check row by row,
// rebuilding an event only to report it.
func (a *ASan) OnAccessBatch(r *ompt.AccessBatch) {
	sizes := r.Sizes[:r.Len()]
	for i, addr := range r.Addrs {
		if b := a.blocks.find(addr); b == nil || !b.contains(addr, sizes[i]) {
			a.report(r.At(i), b)
		}
	}
}

// report records an access outside every live block; b is the block
// containing its first byte, if any.
func (a *ASan) report(e ompt.AccessEvent, b *block) {
	detail := "Access is outside every live allocation (redzone hit)."
	if b != nil {
		detail = fmt.Sprintf("Access straddles the end of the %d-byte block %q.", b.bytes, b.tag)
	}
	a.sink.AddAt(e.Clock, &report.Report{
		Tool:   a.Name(),
		Kind:   report.InvalidAccess,
		Var:    e.Tag,
		Addr:   e.Addr,
		Size:   e.Size,
		Write:  e.Write,
		Device: e.Device,
		Thread: e.Thread,
		Loc:    e.Loc,
		Detail: detail,
	})
}

var _ ompt.Tool = (*ASan)(nil)
