package ompt

import (
	"unsafe"

	"repro/internal/mem"
)

// AccessBatch is a columnar run of access events: every field lives in one
// slice each (structure-of-arrays), so an analysis loop streams over dense
// pointer-free arrays. The cold string fields (Tag, Loc) are not repeated
// per event: Sites maps each event to an ordinal in the site table, the
// distinct (Tag, Loc) pairs seen. Replay dispatches batches that are views
// of a trace's access columns, bounded by barrier events; the live runtime
// builds its runs with Append and Reset. Tools that implement BatchTool
// consume a batch whole.
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
	// of one trace all alias the same table, and a built batch keeps its
	// table across Reset), and no entry ever changes once added, which
	// lets consumers cache per-table work keyed on the table's identity.
	Sites    []uint32
	SiteTags []string
	SiteLocs []SourceLoc

	// index interns the sites of a batch built with Append.
	index *siteIndex
}

// site is the site table's dedup key.
type site struct {
	tag string
	loc SourceLoc
}

// siteIndex maps each site of a built batch's table to its ordinal, behind
// a small direct-mapped memo: a loop body cycles through a few sites, so
// most accesses resolve theirs from one slot instead of hashing a tag and
// a location. Slots are keyed by line number and the tag's length and
// first and last bytes (a kernel line touches differently-named buffers,
// often sharing a prefix).
type siteIndex struct {
	ords map[site]uint32
	memo [32]struct {
		site
		ord uint32
		ok  bool
	}
}

// Len returns the number of events in the batch.
func (b *AccessBatch) Len() int { return len(b.Addrs) }

// At rebuilds event i as a plain AccessEvent (slow paths, reports) from
// the columns and the site table, with the batch's clock stamped in.
func (b *AccessBatch) At(i int) AccessEvent {
	s := b.Sites[i]
	return AccessEvent{
		Addr: b.Addrs[i], Size: b.Sizes[i], Write: b.Writes[i], Device: b.Devices[i],
		Task: b.Tasks[i], Thread: b.Threads[i], Base: b.Bases[i],
		Tag: b.SiteTags[s], Loc: b.SiteLocs[s], Clock: b.Clocks[i],
	}
}

// Append adds e as the batch's last row, its clock included, and interns
// its site into the batch's own table.
func (b *AccessBatch) Append(e *AccessEvent) {
	b.Addrs = append(b.Addrs, e.Addr)
	b.Sizes = append(b.Sizes, e.Size)
	b.Writes = append(b.Writes, e.Write)
	b.Devices = append(b.Devices, e.Device)
	b.Tasks = append(b.Tasks, e.Task)
	b.Threads = append(b.Threads, e.Thread)
	b.Bases = append(b.Bases, e.Base)
	b.Clocks = append(b.Clocks, e.Clock)
	b.Sites = append(b.Sites, b.intern(e.Tag, e.Loc))
}

// intern returns the ordinal of (tag, loc) in the batch's site table,
// appending it if new.
func (b *AccessBatch) intern(tag string, loc SourceLoc) uint32 {
	x := b.index
	if x == nil {
		x = &siteIndex{ords: make(map[site]uint32)}
		b.index = x
	}
	h := loc.Line * 7
	if n := len(tag); n > 0 {
		h += int(tag[0])*131 + int(tag[n-1])*31 + n
	}
	m := &x.memo[h&(len(x.memo)-1)]
	if m.ok && m.loc.Line == loc.Line && same(m.tag, tag) && same(m.loc.File, loc.File) && same(m.loc.Func, loc.Func) {
		return m.ord
	}
	k := site{tag: tag, loc: loc}
	ord, ok := x.ords[k]
	if !ok {
		ord = uint32(len(b.SiteTags))
		x.ords[k] = ord
		b.SiteTags = append(b.SiteTags, tag)
		b.SiteLocs = append(b.SiteLocs, loc)
	}
	m.site, m.ord, m.ok = k, ord, true
	return ord
}

// same reports whether a and b are one string: the same bytes at the same
// address. A program passes one string per tag and per location, so a
// memo hit is found by identity without comparing bytes; an equal string
// stored elsewhere misses the memo and is found by the map.
func same(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// Reset empties the batch for its next run, keeping its storage and its
// site table.
func (b *AccessBatch) Reset() {
	b.Addrs, b.Sizes, b.Writes = b.Addrs[:0], b.Sizes[:0], b.Writes[:0]
	b.Devices, b.Tasks, b.Threads = b.Devices[:0], b.Tasks[:0], b.Threads[:0]
	b.Bases, b.Clocks, b.Sites = b.Bases[:0], b.Clocks[:0], b.Sites[:0]
}

// BatchTool is implemented by tools with a columnar access fast path.
// OnAccessBatch must be observably equivalent to calling OnAccess on each
// event in order. Like every callback, it is never called concurrently
// with another callback of the same tool, and the batch is valid only for
// the length of the call.
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
