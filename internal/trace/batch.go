// Columnar access dispatch for replay.
//
// A replay loop that hands access events to the dispatcher one
// pointer-chase at a time spends most of its time doing so. Instead, a
// trace is decoded ONCE into a structure-of-arrays column set (accessCols):
// one entry per access event, in trace order, with the replay clock
// pre-stamped. Each replay then dispatches zero-copy slice views of those
// columns — no per-event, per-replay repacking at all. A stream session's
// window of events gets the same columns, built into storage the driver
// reuses. Barrier (non-access) events bound the views, so the set of
// dispatched events at any observable point matches a per-event loop
// exactly, and so do the findings and checkpoint states.
package trace

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// accessCols is the decode-once structure-of-arrays view of a trace's
// access events. Column entry j describes the j-th access event of the
// trace; pos maps an event index to its column ordinal (the count of
// access events before it), so a run of events [i, k) occupies column rows
// [pos[i], pos[i]+(k-i)). clocks holds each access's replay clock: its
// sequence number plus one, so zero keeps meaning "unset". Every replay of
// an event stamps the same clock, batch or streamed, which is what makes
// their shadow metadata, and so their reports, byte-identical.
type accessCols struct {
	pos     []int
	events  []*ompt.AccessEvent
	addrs   []mem.Addr
	sizes   []uint64
	writes  []bool
	devices []ompt.DeviceID
	tasks   []ompt.TaskID
	threads []ompt.ThreadID
	bases   []mem.Addr
	clocks  []uint64

	// The deduplicated site table: sites[j] is an ordinal into
	// siteTags/siteLocs, the distinct (Tag, Loc) pairs of the trace. Built
	// here once so per-event site resolution downstream is an array index,
	// not a hash of the tag and location strings.
	sites    []uint32
	siteTags []string
	siteLocs []ompt.SourceLoc
}

// siteOrd is the column builder's dedup key.
type siteOrd struct {
	tag string
	loc ompt.SourceLoc
}

// columns returns the trace's column set, building it on first use. The
// build is idempotent and the result immutable, so concurrent replays of
// one trace race only on which identical column set gets cached.
func (t *Trace) columns() *accessCols {
	if c := t.cols.Load(); c != nil {
		return c
	}
	c := &accessCols{}
	c.build(t.Events, make(map[siteOrd]uint32))
	t.cols.CompareAndSwap(nil, c)
	return t.cols.Load()
}

// build fills c with the columns of events, reusing c's storage. The site
// table carries over from earlier builds: ords maps the sites already in
// it to their ordinals, new sites are appended, and no entry changes.
func (c *accessCols) build(events []Event, ords map[siteOrd]uint32) {
	n := 0
	for i := range events {
		if e := &events[i]; e.Kind == KindAccess && e.Access != nil {
			n++
		}
	}
	c.pos = slices.Grow(c.pos[:0], len(events)+1)
	c.events = slices.Grow(c.events[:0], n)
	c.addrs = slices.Grow(c.addrs[:0], n)
	c.sizes = slices.Grow(c.sizes[:0], n)
	c.writes = slices.Grow(c.writes[:0], n)
	c.devices = slices.Grow(c.devices[:0], n)
	c.tasks = slices.Grow(c.tasks[:0], n)
	c.threads = slices.Grow(c.threads[:0], n)
	c.bases = slices.Grow(c.bases[:0], n)
	c.clocks = slices.Grow(c.clocks[:0], n)
	c.sites = slices.Grow(c.sites[:0], n)
	for i := range events {
		e := &events[i]
		c.pos = append(c.pos, len(c.events))
		if e.Kind != KindAccess || e.Access == nil {
			continue
		}
		a := e.Access
		c.events = append(c.events, a)
		c.addrs = append(c.addrs, a.Addr)
		c.sizes = append(c.sizes, a.Size)
		c.writes = append(c.writes, a.Write)
		c.devices = append(c.devices, a.Device)
		c.tasks = append(c.tasks, a.Task)
		c.threads = append(c.threads, a.Thread)
		c.bases = append(c.bases, a.Base)
		c.clocks = append(c.clocks, e.Seq+1)
		k := siteOrd{tag: a.Tag, loc: a.Loc}
		ord, ok := ords[k]
		if !ok {
			ord = uint32(len(c.siteTags))
			ords[k] = ord
			c.siteTags = append(c.siteTags, a.Tag)
			c.siteLocs = append(c.siteLocs, a.Loc)
		}
		c.sites = append(c.sites, ord)
	}
	c.pos = append(c.pos, len(c.events))
}

// view returns a zero-copy AccessBatch over column rows [lo, hi). The
// batch aliases the column arrays; consumers must not retain or mutate it
// past the dispatch call (the ompt.BatchTool contract).
func (c *accessCols) view(lo, hi int) ompt.AccessBatch {
	return ompt.AccessBatch{
		Events:  c.events[lo:hi],
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
		SiteTags: c.siteTags,
		SiteLocs: c.siteLocs,
	}
}

// accessBatchCap bounds one columnar batch. Large enough to amortize the
// dispatch indirection, small enough that the batch's columns stay resident
// in L1/L2 while the analyzer streams them.
const accessBatchCap = 1024
