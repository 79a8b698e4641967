// The one in-memory form of a trace: pointer-free access columns plus a
// short list of barrier events.
//
// A replay loop that hands access events to the dispatcher one
// pointer-chase at a time spends most of its time doing so, and a decoded
// trace held as one Event and payload struct per access costs the
// collector a pointer scan per event for as long as the job is queued.
// Instead a trace is held as a structure-of-arrays column set
// (accessCols): one row per access event, in trace order, with the replay
// clock pre-stamped, plus the non-access (barrier) events, each with its
// stream position. The framed decoder writes frames straight into this
// form, a trace built in memory (Trace.Events) is compacted into it on
// first use, and a stream session decodes its frames straight into a
// window of the same columns, storage the driver reuses. A whole trace
// counts its rows and barriers first and allocates each column once. Each
// replay dispatches zero-copy slice views of the columns between barriers,
// so the set of dispatched events at any observable point matches a
// per-event loop exactly, and so do the findings and checkpoint states.
package trace

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// accessCols is a trace, or a window of one, in column form. Row j of the
// columns describes the j-th access event; clocks holds each access's
// replay clock: its sequence number plus one, so zero keeps meaning
// "unset". Every replay of an event stamps the same clock, batch or
// streamed, which is what makes their shadow metadata, and so their
// reports, byte-identical. barriers holds every other event, in stream
// order, so the run of accesses before barrier k occupies the rows up to
// barriers[k].pos - k.
type accessCols struct {
	addrs   []mem.Addr
	sizes   []uint64
	writes  []bool
	devices []ompt.DeviceID
	tasks   []ompt.TaskID
	threads []ompt.ThreadID
	bases   []mem.Addr
	clocks  []uint64
	// sites[j] is an ordinal into the site table.
	sites []uint32
	table siteTable

	barriers []barrier
}

// barrier is one non-access event and its position in the stream.
type barrier struct {
	pos int
	ev  Event
}

// siteTable is the deduplicated site table of a column set: the distinct
// (Tag, Loc) pairs of its accesses, so per-event site resolution
// downstream is an array index, not a hash of the tag and location
// strings.
type siteTable struct {
	tags []string
	locs []ompt.SourceLoc
	// ords indexes the table while it is being built.
	ords map[siteOrd]uint32
}

// siteOrd is the site table's dedup key.
type siteOrd struct {
	tag string
	loc ompt.SourceLoc
}

// intern returns the ordinal of (tag, loc), appending it to the table if
// new. No existing entry ever changes: consumers cache their translation
// of a table keyed on its first element and length.
func (s *siteTable) intern(tag string, loc ompt.SourceLoc) uint32 {
	k := siteOrd{tag: tag, loc: loc}
	ord, ok := s.ords[k]
	if !ok {
		if s.ords == nil {
			s.ords = make(map[siteOrd]uint32)
		}
		ord = uint32(len(s.tags))
		s.ords[k] = ord
		s.tags = append(s.tags, tag)
		s.locs = append(s.locs, loc)
	}
	return ord
}

// row is one access event's entries in the columns.
type row struct {
	addr   mem.Addr
	size   uint64
	write  bool
	device ompt.DeviceID
	task   ompt.TaskID
	thread ompt.ThreadID
	base   mem.Addr
	clock  uint64
	site   uint32
}

// len returns the number of events in c.
func (c *accessCols) len() int { return len(c.addrs) + len(c.barriers) }

// appendRow appends one access row: the one row-append path of decoding,
// compaction and stream windows. Decode and compaction count their rows
// first and size every column once (alloc), so they never grow one; only
// JSON lines and version-1 frames, which cannot be counted without
// decoding them, grow the columns by doubling as they go.
func (c *accessCols) appendRow(r *row) {
	if len(c.addrs) == cap(c.addrs) {
		c.grow(max(len(c.addrs), 256))
	}
	c.addrs = append(c.addrs, r.addr)
	c.sizes = append(c.sizes, r.size)
	c.writes = append(c.writes, r.write)
	c.devices = append(c.devices, r.device)
	c.tasks = append(c.tasks, r.task)
	c.threads = append(c.threads, r.thread)
	c.bases = append(c.bases, r.base)
	c.clocks = append(c.clocks, r.clock)
	c.sites = append(c.sites, r.site)
}

// grow makes room for n more rows in every column.
func (c *accessCols) grow(n int) {
	c.addrs = slices.Grow(c.addrs, n)
	c.sizes = slices.Grow(c.sizes, n)
	c.writes = slices.Grow(c.writes, n)
	c.devices = slices.Grow(c.devices, n)
	c.tasks = slices.Grow(c.tasks, n)
	c.threads = slices.Grow(c.threads, n)
	c.bases = slices.Grow(c.bases, n)
	c.clocks = slices.Grow(c.clocks, n)
	c.sites = slices.Grow(c.sites, n)
}

// alloc sizes an empty c for rows access rows and barriers barriers, one
// allocation per column: the sizing rule of every whole-trace build.
func (c *accessCols) alloc(rows, barriers int) {
	c.grow(rows)
	c.barriers = make([]barrier, 0, barriers)
}

// add appends e as the next event: an access as a row, its site interned
// by value, and anything else as a barrier. A malformed access (no
// payload) becomes a barrier too, which the replay loop rejects when it
// reaches it, so a hand-built malformed trace fails cleanly.
func (c *accessCols) add(e *Event) {
	if !isRow(e) {
		c.barriers = append(c.barriers, barrier{pos: c.len(), ev: *e})
		return
	}
	a := e.Access
	c.appendRow(&row{
		addr: a.Addr, size: a.Size, write: a.Write, device: a.Device,
		task: a.Task, thread: a.Thread, base: a.Base, clock: e.Seq + 1,
		site: c.table.intern(a.Tag, a.Loc),
	})
}

// isRow reports whether add makes e a row.
func isRow(e *Event) bool { return e.Kind == KindAccess && e.Access != nil }

// compact builds an empty c from a trace built in memory: it counts the
// events' rows, sizes the columns once, and adds every event. The site
// index, which only building needs, is dropped.
func (c *accessCols) compact(events []Event) {
	rows := 0
	for i := range events {
		if isRow(&events[i]) {
			rows++
		}
	}
	c.alloc(rows, len(events)-rows)
	for i := range events {
		c.add(&events[i])
	}
	c.table.ords = nil
}

// reset empties a stream window for its next events, keeping its storage
// and its site table, which only grows.
func (c *accessCols) reset() {
	c.addrs, c.sizes, c.writes = c.addrs[:0], c.sizes[:0], c.writes[:0]
	c.devices, c.tasks, c.threads = c.devices[:0], c.tasks[:0], c.threads[:0]
	c.bases, c.clocks, c.sites = c.bases[:0], c.clocks[:0], c.sites[:0]
	clear(c.barriers) // drop the window's payloads
	c.barriers = c.barriers[:0]
}

// view returns a zero-copy AccessBatch over column rows [lo, hi). The
// batch aliases the column arrays; consumers must not retain or mutate it
// past the dispatch call (the ompt.BatchTool contract).
func (c *accessCols) view(lo, hi int) ompt.AccessBatch {
	return ompt.AccessBatch{
		Addrs:   c.addrs[lo:hi],
		Sizes:   c.sizes[lo:hi],
		Writes:  c.writes[lo:hi],
		Devices: c.devices[lo:hi],
		Tasks:   c.tasks[lo:hi],
		Threads: c.threads[lo:hi],
		Bases:   c.bases[lo:hi],
		Clocks:  c.clocks[lo:hi],
		Sites:   c.sites[lo:hi],
		// Every view aliases the one table, so consumers can cache their
		// per-table state across batches keyed on the table's identity.
		SiteTags: c.table.tags,
		SiteLocs: c.table.locs,
	}
}

// each calls fn with every event of c in stream order. Accesses are
// rebuilt from their rows into one Event and payload that each call
// reuses, with Clock zero as recorded; barriers are passed as stored.
func (c *accessCols) each(fn func(*Event) error) error {
	var a ompt.AccessEvent
	acc := Event{Kind: KindAccess, Access: &a}
	j := 0
	rowsTo := func(end int) error {
		for ; j < end; j++ {
			v := c.view(j, j+1)
			a = v.At(0)
			a.Clock = 0
			acc.Seq = c.clocks[j] - 1
			if err := fn(&acc); err != nil {
				return err
			}
		}
		return nil
	}
	for k := range c.barriers {
		b := &c.barriers[k]
		if err := rowsTo(b.pos - k); err != nil {
			return err
		}
		if err := fn(&b.ev); err != nil {
			return err
		}
	}
	return rowsTo(len(c.addrs))
}

// accessBatchCap bounds one columnar batch. Large enough to amortize the
// dispatch indirection, small enough that the batch's columns stay resident
// in L1/L2 while the analyzer streams them.
const accessBatchCap = 1024
