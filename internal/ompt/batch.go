package ompt

import "repro/internal/mem"

// AccessBatch is a columnar run of access events: every field lives in one
// slice each (structure-of-arrays), so the replay loop streams over dense
// pointer-free arrays. The cold string fields (Tag, Loc) are not repeated
// per event: Sites maps each event to an ordinal in the site table, the
// distinct (Tag, Loc) pairs of the trace. Batches are built by the trace
// layer as views of a trace's access columns, bounded by barrier events,
// and consumed whole by tools that implement BatchTool.
type AccessBatch struct {
	Addrs   []mem.Addr
	Sizes   []uint64
	Writes  []bool
	Devices []DeviceID
	Tasks   []TaskID
	Threads []ThreadID
	Bases   []mem.Addr
	Clocks  []uint64

	// Sites maps each event to an ordinal in the site table: SiteTags[s]
	// and SiteLocs[s] are event i's Tag and Loc for s = Sites[i], so
	// consumers resolve a site with one index instead of hashing tag and
	// location per event. The table may be shared by many batches (views
	// of one trace all alias the same table), which lets consumers cache
	// per-table work keyed on the table's identity.
	Sites    []uint32
	SiteTags []string
	SiteLocs []SourceLoc
}

// Len returns the number of events in the batch.
func (b *AccessBatch) Len() int { return len(b.Addrs) }

// At rebuilds event i as a plain AccessEvent (slow paths, reports) from
// the columns and the site table, with the batch's replay clock stamped in.
func (b *AccessBatch) At(i int) AccessEvent {
	s := b.Sites[i]
	return AccessEvent{
		Addr: b.Addrs[i], Size: b.Sizes[i], Write: b.Writes[i], Device: b.Devices[i],
		Task: b.Tasks[i], Thread: b.Threads[i], Base: b.Bases[i],
		Tag: b.SiteTags[s], Loc: b.SiteLocs[s], Clock: b.Clocks[i],
	}
}

// BatchTool is implemented by tools with a columnar access fast path.
// OnAccessBatch must be observably equivalent to calling OnAccess on each
// event in order. Like every callback, it is never called concurrently
// with another callback of the same tool.
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
