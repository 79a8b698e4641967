package ompt

import "repro/internal/mem"

// DispatchMode tells tools what concurrency discipline the event source is
// about to use, so they can trade synchronization for speed when they own
// their state exclusively (replay Theorem 1) and keep it when they do not
// (online runtimes, shared stream sessions).
type DispatchMode uint8

// The dispatch modes.
const (
	// DispatchShared (the zero value): callbacks may arrive from multiple
	// goroutines with no per-word ownership. Tools must use their fully
	// synchronized (CAS/locked) paths.
	DispatchShared DispatchMode = iota
	// DispatchSequential: a single goroutine delivers every callback.
	// Tools may drop all synchronization and enable single-threaded
	// accelerator structures (tag planes, lookup memos).
	DispatchSequential
)

// ModalTool is implemented by tools that adapt their synchronization to
// the dispatch mode. SetDispatchMode is called before any event of the
// new regime is dispatched, never concurrently with callbacks.
type ModalTool interface {
	SetDispatchMode(DispatchMode)
}

// SetDispatchMode forwards the mode to every registered tool that cares.
// Call it from the event source before dispatch begins.
func (d *Dispatcher) SetDispatchMode(m DispatchMode) {
	for _, t := range d.tools {
		if mt, ok := t.(ModalTool); ok {
			mt.SetDispatchMode(m)
		}
	}
}

// AccessBatch is a columnar run of access events: the hot scalar fields
// live in one slice each (structure-of-arrays), so the replay decode loop
// streams over dense pointer-free arrays, while the cold pointer-bearing
// fields (Tag, Loc) stay in the original event payloads, reached through
// Events only on slow paths. Copying strings per event would cost a GC
// write barrier each; aliasing the payload costs nothing. Batches are
// built by the trace layer as views of a trace's decode-once access
// columns, bounded by barrier events, and consumed whole by tools that
// implement BatchTool.
type AccessBatch struct {
	Events  []*AccessEvent
	Addrs   []mem.Addr
	Sizes   []uint64
	Writes  []bool
	Devices []DeviceID
	Tasks   []TaskID
	Threads []ThreadID
	Bases   []mem.Addr
	Clocks  []uint64

	// Sites, when non-nil, maps each event to an ordinal in the site table
	// (SiteTags[s], SiteLocs[s] are event i's Tag and Loc for s = Sites[i]).
	// Builders that know the distinct (Tag, Loc) pairs up front — the
	// decode-once column set dedupes them in one pass over the trace —
	// populate it so consumers resolve a site with one index instead of
	// hashing tag and location per event. The table may be shared by many
	// batches (views of one trace all alias the same table), which lets
	// consumers cache per-table work keyed on the table's identity. Nil
	// means "not provided"; consumers must fall back to Events[i].
	Sites    []uint32
	SiteTags []string
	SiteLocs []SourceLoc
}

// Len returns the number of events in the batch.
func (b *AccessBatch) Len() int { return len(b.Addrs) }

// At reconstructs event i as a plain AccessEvent (slow paths, reports),
// with the batch's replay clock stamped in.
func (b *AccessBatch) At(i int) AccessEvent {
	e := *b.Events[i]
	e.Clock = b.Clocks[i]
	return e
}

// BatchTool is implemented by tools with a columnar access fast path.
// OnAccessBatch must be observably equivalent to calling OnAccess on each
// event in order.
type BatchTool interface {
	OnAccessBatch(*AccessBatch)
}

// AccessBatch dispatches a run of accesses: tools with a columnar fast
// path consume the batch whole, everything else sees the per-event
// callbacks in order.
func (d *Dispatcher) AccessBatch(b *AccessBatch) {
	for _, t := range d.tools {
		if bt, ok := t.(BatchTool); ok {
			bt.OnAccessBatch(b)
			continue
		}
		for i, n := 0, b.Len(); i < n; i++ {
			t.OnAccess(b.At(i))
		}
	}
}
