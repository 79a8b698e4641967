package omp

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// Context is the execution context of a task: the host program's initial
// task, a target task running a kernel on a device, or one worker of a
// ParallelFor. All application memory accesses go through Context accessors,
// which emit instrumentation events and — inside target regions — redirect
// the access from the original variable (OV) to the corresponding variable
// (CV) on the executing device, as the compiler does for mapped variables.
type Context struct {
	rt     *Runtime
	task   *task
	device ompt.DeviceID
	space  *mem.Space
	dev    *Device // nil for host contexts
	loc    ompt.SourceLoc
}

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Device returns the executing device id (ompt.HostDevice on the host).
func (c *Context) Device() ompt.DeviceID { return c.device }

// TaskID returns the current task's id.
func (c *Context) TaskID() ompt.TaskID { return c.task.id }

// ThreadID returns the current simulated thread's id.
func (c *Context) ThreadID() ompt.ThreadID { return c.task.thread }

// At sets the synthetic source location attached to subsequent events from
// this context. It returns c to allow chaining:
//
//	c.At("bench.go", 42, "kernel").StoreF64(a, i, v)
func (c *Context) At(file string, line int, fn string) *Context {
	c.loc = ompt.SourceLoc{File: file, Line: line, Func: fn}
	return c
}

// Loc returns the context's current source location.
func (c *Context) Loc() ompt.SourceLoc { return c.loc }

// resolve maps (buffer, element index) to the physical address the access
// touches on this context's device, plus the base address of the storage the
// access was issued against.
//
// On the host, both are the OV addresses. On a device, the runtime performs
// the compiler's base-pointer translation: it finds the mapping for the
// accessed location (falling back to the mapping of the buffer's base, then
// to any mapping overlapping the buffer) and applies the OV->CV offset. An
// out-of-section index therefore yields an address beyond the CV — a
// data-mapping-related buffer overflow — rather than a masked error, exactly
// the undefined behaviour the paper describes (§IV-D).
func (c *Context) resolve(b *Buffer, i int) (addr, base mem.Addr, ok bool) {
	ovAddr := b.elemAddr(i)
	if c.dev == nil {
		return ovAddr, b.addr, true
	}
	if c.dev.unified {
		// Unified memory: CV and OV share storage.
		return ovAddr, b.addr, true
	}
	env := c.dev.env
	m := env.lookupContaining(ovAddr)
	if m == nil {
		m = env.lookupContaining(b.addr)
	}
	if m == nil {
		m = env.lookupOverlapping(b.addr, b.Bytes())
	}
	if m == nil {
		c.rt.fault(fmt.Errorf("omp: device %d accesses unmapped variable %s at %s",
			c.device, b.tag, c.loc))
		return 0, 0, false
	}
	return m.TranslateToCV(ovAddr), m.CV, true
}

// access performs one instrumented load or store of size bytes.
func (c *Context) access(b *Buffer, i int, size uint64, write bool, val uint64) uint64 {
	addr, base, ok := c.resolve(b, i)
	if !ok {
		return 0
	}
	if c.rt.unifiedPages != nil {
		c.rt.unifiedPages.touch(addr, c.device)
	}
	if !c.rt.tools.Empty() {
		c.rt.tools.Access(&ompt.AccessEvent{
			Addr:   addr,
			Size:   size,
			Write:  write,
			Device: c.device,
			Task:   c.task.id,
			Thread: c.task.thread,
			Base:   base,
			Tag:    b.tag,
			Loc:    c.loc,
		})
	}
	if write {
		if err := c.space.Store(addr, size, val); err != nil {
			c.rt.fault(err)
		}
		return 0
	}
	v, err := c.space.Load(addr, size)
	if err != nil {
		c.rt.fault(err)
		return 0
	}
	return v
}

func (c *Context) checkElem(b *Buffer, want uint64, op string) bool {
	if b.elem != want {
		c.rt.fault(fmt.Errorf("omp: %s on buffer %s with element size %d (want %d) at %s",
			op, b.tag, b.elem, want, c.loc))
		return false
	}
	return true
}

// LoadF64 reads element i of a float64 buffer.
func (c *Context) LoadF64(b *Buffer, i int) float64 {
	if !c.checkElem(b, 8, "LoadF64") {
		return 0
	}
	return math.Float64frombits(c.access(b, i, 8, false, 0))
}

// StoreF64 writes element i of a float64 buffer.
func (c *Context) StoreF64(b *Buffer, i int, v float64) {
	if !c.checkElem(b, 8, "StoreF64") {
		return
	}
	c.access(b, i, 8, true, math.Float64bits(v))
}

// LoadI64 reads element i of an int64 buffer.
func (c *Context) LoadI64(b *Buffer, i int) int64 {
	if !c.checkElem(b, 8, "LoadI64") {
		return 0
	}
	return int64(c.access(b, i, 8, false, 0))
}

// StoreI64 writes element i of an int64 buffer.
func (c *Context) StoreI64(b *Buffer, i int, v int64) {
	if !c.checkElem(b, 8, "StoreI64") {
		return
	}
	c.access(b, i, 8, true, uint64(v))
}

// LoadF32 reads element i of a float32 buffer.
func (c *Context) LoadF32(b *Buffer, i int) float32 {
	if !c.checkElem(b, 4, "LoadF32") {
		return 0
	}
	return math.Float32frombits(uint32(c.access(b, i, 4, false, 0)))
}

// StoreF32 writes element i of a float32 buffer.
func (c *Context) StoreF32(b *Buffer, i int, v float32) {
	if !c.checkElem(b, 4, "StoreF32") {
		return
	}
	c.access(b, i, 4, true, uint64(math.Float32bits(v)))
}

// LoadI32 reads element i of an int32 buffer.
func (c *Context) LoadI32(b *Buffer, i int) int32 {
	if !c.checkElem(b, 4, "LoadI32") {
		return 0
	}
	return int32(uint32(c.access(b, i, 4, false, 0)))
}

// StoreI32 writes element i of an int32 buffer.
func (c *Context) StoreI32(b *Buffer, i int, v int32) {
	if !c.checkElem(b, 4, "StoreI32") {
		return
	}
	c.access(b, i, 4, true, uint64(uint32(v)))
}

// LoadU8 reads element i of a byte buffer.
func (c *Context) LoadU8(b *Buffer, i int) uint8 {
	if !c.checkElem(b, 1, "LoadU8") {
		return 0
	}
	return uint8(c.access(b, i, 1, false, 0))
}

// StoreU8 writes element i of a byte buffer.
func (c *Context) StoreU8(b *Buffer, i int, v uint8) {
	if !c.checkElem(b, 1, "StoreU8") {
		return
	}
	c.access(b, i, 1, true, uint64(v))
}
