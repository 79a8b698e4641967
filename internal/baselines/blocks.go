// Package baselines implements analogues of the four dynamic analysis tools
// the paper compares ARBALEST against (paper §VI-A): Valgrind's memcheck,
// AddressSanitizer (ASan), and MemorySanitizer (MSan). (The fourth, Archer,
// lives in internal/race.)
//
// Each analogue implements the real tool's detection algorithm — block
// bounds tracking, redzone-style out-of-bounds checks, byte-level
// definedness with poison-on-allocation — over the event stream its
// real-world instrumentation level could observe. The observation gaps are
// deliberate and documented in DESIGN.md: they are what makes these tools
// miss most data mapping issues in Table III. In particular:
//
//   - ASan tracks bounds but not definedness, so it catches the
//     buffer-overflow bugs and nothing else.
//   - MSan tracks definedness with poison-on-allocation, so it catches the
//     use-of-uninitialized-memory bugs; but host<->device transfers launder
//     definedness (the runtime's staging path is invisible to compiler
//     interceptors), and it has no bounds checking.
//   - Valgrind (memcheck) tracks bounds for all blocks, but its definedness
//     view of device memory is blinded by the device arena the runtime
//     pre-touches (what binary instrumentation sees below a real offloading
//     runtime), so it reports the overflow bugs but no UUM/USD.
//   - None of the three understands map semantics, so stale-data bugs — where
//     every byte is allocated and defined, just out of date — are invisible
//     to all of them; only ARBALEST's state machine catches those.
package baselines

import (
	"repro/internal/interval"
	"repro/internal/mem"
	"repro/internal/ompt"
)

// block is one tracked allocation.
type block struct {
	base  mem.Addr
	bytes uint64
	tag   string
	loc   ompt.SourceLoc
	// def is the byte-level definedness bitmap (1 bit per byte), present
	// only for tools that track definedness of this block.
	def []uint64
}

func (b *block) contains(addr mem.Addr, size uint64) bool {
	return addr >= b.base && addr+mem.Addr(size) <= b.base+mem.Addr(b.bytes)
}

// markDefined sets the definedness of [addr, addr+size) to v.
func (b *block) markDefined(addr mem.Addr, size uint64, v bool) {
	if b.def == nil {
		return
	}
	off := uint64(addr - b.base)
	for i := uint64(0); i < size && off+i < b.bytes; i++ {
		w, bit := (off+i)/64, (off+i)%64
		if v {
			b.def[w] |= 1 << bit
		} else {
			b.def[w] &^= 1 << bit
		}
	}
}

// allDefined reports whether every byte of [addr, addr+size) is defined.
func (b *block) allDefined(addr mem.Addr, size uint64) bool {
	if b.def == nil {
		return true
	}
	off := uint64(addr - b.base)
	for i := uint64(0); i < size && off+i < b.bytes; i++ {
		w, bit := (off+i)/64, (off+i)%64
		if b.def[w]&(1<<bit) == 0 {
			return false
		}
	}
	return true
}

// blockTable tracks live blocks across all address spaces (host and device
// addresses never collide, so one table suffices). Like every tool's
// state, it is touched by one callback at a time (the ompt.Tool contract).
type blockTable struct {
	blocks *interval.Index[*block]

	peakBytes uint64
	curBytes  uint64
}

func newBlockTable() *blockTable {
	return &blockTable{blocks: interval.New[*block]()}
}

// add registers a live block. withDef allocates a definedness bitmap
// initialized to initDefined.
func (t *blockTable) add(base mem.Addr, bytes uint64, tag string, loc ompt.SourceLoc, withDef, initDefined bool) *block {
	b := &block{base: base, bytes: bytes, tag: tag, loc: loc}
	if withDef {
		b.def = make([]uint64, (bytes+63)/64)
		if initDefined {
			for i := range b.def {
				b.def[i] = ^uint64(0)
			}
		}
	}
	if err := t.blocks.Insert(uint64(base), uint64(base)+bytes, b); err != nil {
		return nil
	}
	t.curBytes += bytes
	if withDef {
		t.curBytes += bytes / 8
	}
	if t.curBytes > t.peakBytes {
		t.peakBytes = t.curBytes
	}
	return b
}

// remove drops the block based at base and reports whether one existed.
func (t *blockTable) remove(base mem.Addr) bool {
	_, b, ok := t.blocks.Stab(uint64(base))
	if !ok || b.base != base || !t.blocks.Delete(uint64(base)) {
		return false
	}
	t.curBytes -= b.bytes
	if b.def != nil {
		t.curBytes -= b.bytes / 8
	}
	return true
}

// find returns the block containing addr, or nil.
func (t *blockTable) find(addr mem.Addr) *block {
	_, b, _ := t.blocks.Stab(uint64(addr))
	return b
}

// peak returns the high-water mark of tracked bytes (blocks + bitmaps), the
// tool's contribution to the space-overhead experiment.
func (t *blockTable) peak() uint64 { return t.peakBytes }
