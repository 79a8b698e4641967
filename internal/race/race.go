// Package race implements a happens-before data race detector over the
// simulated offloading runtime — the repository's analogue of Archer (the
// OpenMP race detector ARBALEST is built on, paper §V) and hypothesis 1 of
// the paper's Theorem 1.
//
// The detector maintains a vector clock per task, built from the runtime's
// sync events: task creation copies the parent's clock to the child, and
// completed tasks are joined into a successor at taskwait / dependence
// edges. Every application access — and every word a data transfer reads or
// writes, which is how the paper's Fig. 2 race between a host write and the
// exit transfer of a target data region is caught — is checked against the
// last conflicting accesses to the same aligned 8-byte word.
//
// Shadow cells are stored in 1 KiB page tables rather than a flat
// per-word map: sequential sweeps (the dominant access pattern of the
// paper's array kernels) resolve 127 of every 128 words from a one-entry
// page memo, so the per-access cost is an indexed load instead of a map
// probe. Cell records are pointer-free — the report strings (variable tag
// and source location) are interned once per site into a side table and
// referenced by id — which keeps the cells invisible to the garbage
// collector and the hot-path copies small.
package race

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/report"
)

// VC is a sparse vector clock indexed by task id.
type VC map[ompt.TaskID]uint64

// Copy returns an independent copy of the clock.
func (v VC) Copy() VC {
	out := make(VC, len(v))
	for k, c := range v {
		out[k] = c
	}
	return out
}

// Join merges other into v (pointwise max).
func (v VC) Join(other VC) {
	for k, c := range other {
		if c > v[k] {
			v[k] = c
		}
	}
}

// HappensBefore reports whether epoch (task, clock) is ordered before the
// point described by v.
func (v VC) HappensBefore(task ompt.TaskID, clock uint64) bool {
	return clock <= v[task]
}

// vcChunkWords is the span of one vector-clock chunk. Task ids are handed
// out sequentially from 1, so a chunk covers a dense run of related tasks.
const vcChunkWords = 64

// vcChunk holds the clocks of one aligned 64-task run. A chunk referenced
// by more than one vclock is marked shared; writers copy it first
// (copy-on-write). The flag is only read and written under the detector's
// sync mutex (all clones/joins/bumps happen inside OnSync), so it needs no
// atomicity; concurrent readers touch only the clock values.
type vcChunk struct {
	shared bool
	v      [vcChunkWords]uint64
}

// vclock is the detector's internal vector clock: a chunked copy-on-write
// array indexed by task id. Lookups stay O(1) (two derefs); the clone a
// task creation or completion performs copies only the spine — one pointer
// per 64 tasks — and marks the chunks shared, so spawn-heavy workloads
// don't pay O(max-task-id) word copies per task. Joins skip chunks the two
// clocks already share by pointer identity, which after a clone is most of
// them. The exported VC map is only materialized at the snapshot boundary.
type vclock struct {
	spine []*vcChunk
}

func (v *vclock) get(t ompt.TaskID) uint64 {
	ci := int(t) / vcChunkWords
	if ci < 0 || ci >= len(v.spine) || v.spine[ci] == nil {
		return 0
	}
	return v.spine[ci].v[int(t)%vcChunkWords]
}

// chunkFor returns a privately owned chunk covering t, growing the spine
// and breaking sharing as needed.
func (v *vclock) chunkFor(t ompt.TaskID) *vcChunk {
	ci := int(t) / vcChunkWords
	if ci >= len(v.spine) {
		ns := make([]*vcChunk, ci+1)
		copy(ns, v.spine)
		v.spine = ns
	}
	c := v.spine[ci]
	switch {
	case c == nil:
		c = &vcChunk{}
		v.spine[ci] = c
	case c.shared:
		c = &vcChunk{v: c.v}
		v.spine[ci] = c
	}
	return c
}

func (v *vclock) set(t ompt.TaskID, c uint64) {
	v.chunkFor(t).v[int(t)%vcChunkWords] = c
}

func (v *vclock) bump(t ompt.TaskID) {
	v.chunkFor(t).v[int(t)%vcChunkWords]++
}

// clone returns a logically independent copy by sharing every chunk.
func (v *vclock) clone() vclock {
	ns := make([]*vcChunk, len(v.spine))
	for i, c := range v.spine {
		if c != nil {
			c.shared = true
		}
		ns[i] = c
	}
	return vclock{spine: ns}
}

// join merges other into v (pointwise max). Chunks the two clocks already
// share are skipped; chunks v lacks entirely are adopted by sharing.
func (v *vclock) join(other vclock) {
	if n := len(other.spine); n > len(v.spine) {
		ns := make([]*vcChunk, n)
		copy(ns, v.spine)
		v.spine = ns
	}
	for ci, oc := range other.spine {
		if oc == nil || v.spine[ci] == oc {
			continue
		}
		c := v.spine[ci]
		if c == nil {
			oc.shared = true
			v.spine[ci] = oc
			continue
		}
		if c.shared {
			c = &vcChunk{v: c.v}
			v.spine[ci] = c
		}
		for i, oclk := range oc.v {
			if oclk > c.v[i] {
				c.v[i] = oclk
			}
		}
	}
}

// toVC converts to the sparse wire form, omitting zero entries (the map
// form never stores zeros, so the encodings round-trip byte-identically).
func (v *vclock) toVC() VC {
	out := make(VC)
	for ci, c := range v.spine {
		if c == nil {
			continue
		}
		for i, clk := range c.v {
			if clk != 0 {
				out[ompt.TaskID(ci*vcChunkWords+i)] = clk
			}
		}
	}
	return out
}

func fromVC(m VC) vclock {
	var out vclock
	for t, c := range m {
		out.set(t, c)
	}
	return out
}

// siteKey identifies one access site: the variable tag and source location
// an access reports under. Sites are interned so the per-word shadow cells
// carry a 4-byte id instead of three strings.
type siteKey struct {
	tag string
	loc ompt.SourceLoc
}

// accessRecord describes one prior access to a word. It is deliberately
// pointer-free (the site id stands in for the tag/location strings): cell
// pages hold millions of these, and a pointer field would make every page a
// GC scan target and every record store a write-barrier.
type accessRecord struct {
	task  ompt.TaskID
	clock uint64
	// seq is the replay-assigned event clock (0 online), used to order
	// deduplicated race reports deterministically across dispatch orders.
	seq    uint64
	device ompt.DeviceID
	site   uint32
	thread ompt.ThreadID
	write  bool
}

// cell holds the race-detection state of one aligned word: the last write
// epoch plus the set of reads since that write (the FastTrack read set).
//
// The read set is a slice, not a map: almost every word has at most one
// concurrent reader at a time, reads that happen-before the incoming read
// are discarded (any write racing with a discarded read also races with the
// read that superseded it, so no race is lost), and the backing array is
// reused across the write that clears the set. That keeps the per-access
// hot path free of map assignments and map churn — allocation pressure
// here is what bounds concurrent analysis scaling.
type cell struct {
	write accessRecord
	// read0 inlines the first entry of the concurrent read set (task 0 =
	// empty): almost every cell has at most one outstanding reader, so the
	// common read path never allocates. reads holds the overflow, in
	// arrival order after read0 — read0 is always the oldest survivor, so
	// snapshots see the same ordering the slice-only layout produced.
	read0 accessRecord
	reads []accessRecord
}

// touched reports whether any access has been recorded in the cell since it
// was zeroed (task 0 never appears in events; it is the "no write" sentinel).
func (c *cell) touched() bool { return c.write.task != 0 || c.read0.task != 0 }

const (
	// pageWords is the cell count per page: 1 KiB of application address
	// space, small enough that sparse workloads waste little, large enough
	// that a sequential sweep amortizes the page-map probe 128-fold.
	pageWords = 128
	pageBytes = pageWords * mem.WordSize
	numShards = 64
)

// cellPage is the shadow state of one naturally aligned 1 KiB span. used
// counts touched cells, so ShadowBytes can report the per-word footprint
// the space-overhead experiment expects and clearRange can drop empty pages.
type cellPage struct {
	used  int
	cells [pageWords]cell
}

type shard struct {
	mu    sync.Mutex
	pages map[mem.Addr]*cellPage
}

// pagePool recycles cell pages across detector lifetimes. A page is ~13 KiB
// of cells; replay jobs allocate hundreds, and the service runs one job
// after another — without pooling every job re-zeroes that memory through
// the allocator. Pages are scrubbed on Release, so pool hits are clean.
var pagePool = sync.Pool{New: func() any { return new(cellPage) }}

// newPage takes a clean page from the pool.
func newPage() *cellPage { return pagePool.Get().(*cellPage) }

// putPage scrubs a page and returns it to the pool. Read-set backing
// arrays are kept (length 0) — records are pointer-free, so a stale
// backing array holds no references and saves the next job's growth.
func putPage(pg *cellPage) {
	if pg.used != 0 {
		for i := range pg.cells {
			c := &pg.cells[i]
			c.write = accessRecord{}
			c.read0 = accessRecord{}
			c.reads = c.reads[:0]
		}
		pg.used = 0
	}
	pagePool.Put(pg)
}

// taskClock is one task's vector clock behind its own lock, so the hot
// access path can query happens-before with a read lock instead of copying
// the clock (the FastTrack-style optimization that keeps the per-access cost
// O(1) when no synchronization intervenes).
type taskClock struct {
	mu sync.RWMutex
	vc vclock
}

// Detector is the race detector tool.
type Detector struct {
	sink *report.Sink

	// live maps task id -> *taskClock. A sync.Map keeps the per-access
	// clock lookup lock-free: taskClockOf is on the hot path of every
	// instrumented access, and a plain mutex-guarded map serializes all
	// concurrent runtime threads through one cache line.
	live sync.Map

	mu    sync.Mutex // serializes OnSync and guards ended
	ended map[ompt.TaskID]vclock

	shards [numShards]shard

	// The site interner: id -> key in sites, key -> id in siteIDs. Sites
	// are few (one per instrumented source location) and long-lived, so the
	// RWMutex is uncontended in practice — the batch path additionally
	// memoizes the last site across a run of accesses.
	siteMu  sync.RWMutex
	sites   []siteKey
	siteIDs map[siteKey]uint32

	// seqMode is set (via SetDispatchMode) when a single goroutine owns
	// every callback: the per-shard mutexes and the task-clock read locks
	// are elided, and one-entry memos short-circuit the task-clock lookup
	// (invalidated on every OnSync, because SyncTaskCreate installs a fresh
	// clock object) and the cell-page lookup (invalidated on clearRange).
	seqMode   bool
	memoTask  ompt.TaskID
	memoTC    *taskClock
	memoClock uint64
	seqSites  siteMemo

	// Interned-ID translation of the last batch site table (sequential
	// mode only). Views of one trace share a single table, so interning it
	// once covers every batch of a replay; the cache is keyed on the
	// table's identity, which is sound because holding siteTabTags pins
	// the backing array against reuse.
	siteTabTags []string
	siteTabIDs  []uint32

	// One-entry memo of the last touched cell page (sequential mode only):
	// consecutive accesses overwhelmingly land on the same 1 KiB page, so
	// this converts the per-access shard-map probe into one base compare.
	memoPageBase mem.Addr
	memoPage     *cellPage
}

// New creates a detector reporting into sink (a fresh sink when nil).
func New(sink *report.Sink) *Detector {
	if sink == nil {
		sink = report.NewSink()
	}
	d := &Detector{
		sink:    sink,
		ended:   make(map[ompt.TaskID]vclock),
		siteIDs: make(map[siteKey]uint32),
	}
	for i := range d.shards {
		d.shards[i].pages = make(map[mem.Addr]*cellPage)
	}
	return d
}

// Name implements ompt.Tool.
func (d *Detector) Name() string { return "Archer" }

// SetDispatchMode implements ompt.ModalTool. DispatchSequential relaxes
// locking; any other mode keeps it.
func (d *Detector) SetDispatchMode(m ompt.DispatchMode) {
	d.seqMode = m == ompt.DispatchSequential
	d.memoTC = nil
	d.memoPage = nil
}

// Sink returns the report sink.
func (d *Detector) Sink() *report.Sink { return d.sink }

// Reports returns the recorded race reports.
func (d *Detector) Reports() []*report.Report { return d.sink.Reports() }

// ShadowBytes estimates the detector's shadow state footprint for the
// space-overhead experiment: one cell (~96 bytes of clock state) per touched
// word plus the vector clocks.
func (d *Detector) ShadowBytes() uint64 {
	var n uint64
	for i := range d.shards {
		d.shards[i].mu.Lock()
		for _, pg := range d.shards[i].pages {
			n += uint64(pg.used) * 96
		}
		d.shards[i].mu.Unlock()
	}
	liveCount := 0
	d.live.Range(func(_, _ any) bool { liveCount++; return true })
	d.mu.Lock()
	n += uint64(liveCount+len(d.ended)) * 48
	d.mu.Unlock()
	return n
}

// siteMemoN is the slot count of the direct-mapped site memo: larger than
// the number of distinct access sites in a typical innermost loop body so
// line numbers rarely collide.
const siteMemoN = 32

// siteMemo is a small direct-mapped cache in front of the interner, so a
// loop cycling through a few sites resolves each with one indexed compare
// instead of touching the map or its lock. Slots are keyed by line number
// and the tag's first and last bytes — a kernel body's accesses share one
// line but touch differently-named buffers, often sharing a prefix (a
// coordinate triple kx/ky/kz), so the tag bytes are what separate them —
// and the string equality check short-circuits on pointer-equal headers
// (recorded traces reuse one string per site). Not safe for concurrent
// use: callers keep one per goroutine (the batch path uses a local; the
// sequential per-event path uses the detector's).
type siteMemo struct {
	entries [siteMemoN]struct {
		tag string
		loc ompt.SourceLoc
		id  uint32
		ok  bool
	}
}

// lookup resolves (tag, loc) through the memo, falling back to d's
// interner. A collision simply replaces the slot.
func (m *siteMemo) lookup(d *Detector, tag string, loc ompt.SourceLoc) uint32 {
	h := loc.Line * 7
	if n := len(tag); n > 0 {
		h += int(tag[0])*131 + int(tag[n-1])*31 + n
	}
	e := &m.entries[h&(siteMemoN-1)]
	if e.ok && e.loc.Line == loc.Line && e.tag == tag && e.loc == loc {
		return e.id
	}
	id := d.siteID(tag, loc)
	e.tag, e.loc, e.id, e.ok = tag, loc, id, true
	return id
}

// siteTableIDs interns a batch site table, returning interned IDs indexed
// by table ordinal. The translation is cached by table identity, so all
// batches viewing one trace pay for it once. Sequential mode only.
func (d *Detector) siteTableIDs(tags []string, locs []ompt.SourceLoc) []uint32 {
	if len(d.siteTabTags) == len(tags) && &d.siteTabTags[0] == &tags[0] {
		return d.siteTabIDs
	}
	ids := make([]uint32, len(tags))
	for i := range tags {
		ids[i] = d.siteID(tags[i], locs[i])
	}
	d.siteTabTags, d.siteTabIDs = tags, ids
	return ids
}

// siteID interns one (tag, location) pair.
func (d *Detector) siteID(tag string, loc ompt.SourceLoc) uint32 {
	k := siteKey{tag: tag, loc: loc}
	d.siteMu.RLock()
	id, ok := d.siteIDs[k]
	d.siteMu.RUnlock()
	if ok {
		return id
	}
	d.siteMu.Lock()
	defer d.siteMu.Unlock()
	if id, ok = d.siteIDs[k]; ok {
		return id
	}
	id = uint32(len(d.sites))
	d.sites = append(d.sites, k)
	d.siteIDs[k] = id
	return id
}

// site resolves an interned id back to its key.
func (d *Detector) site(id uint32) siteKey {
	d.siteMu.RLock()
	defer d.siteMu.RUnlock()
	return d.sites[id]
}

// OnDeviceInit implements ompt.Tool.
func (d *Detector) OnDeviceInit(ompt.DeviceInitEvent) {}

// OnTargetBegin implements ompt.Tool.
func (d *Detector) OnTargetBegin(ompt.TargetEvent) {}

// OnTargetEnd implements ompt.Tool.
func (d *Detector) OnTargetEnd(ompt.TargetEvent) {}

// OnAlloc implements ompt.Tool: allocation and free reset the shadow cells of
// the covered range, so recycled addresses do not produce false races
// between unrelated objects (the malloc interception real TSan performs).
func (d *Detector) OnAlloc(e ompt.AllocEvent) {
	d.clearRange(e.Addr, e.Bytes)
}

func pageBase(addr mem.Addr) mem.Addr { return addr &^ (pageBytes - 1) }
func cellIndex(addr mem.Addr) int     { return int(addr>>3) & (pageWords - 1) }
func shardOf(base mem.Addr) int       { return int((uint64(base) / pageBytes) % numShards) }

// clearRange drops the cells covering [addr, addr+bytes).
func (d *Detector) clearRange(addr mem.Addr, bytes uint64) {
	end := addr + mem.Addr(bytes)
	for a := addr.Align(); a < end; {
		base := pageBase(a)
		stop := base + pageBytes
		if end < stop {
			stop = end
		}
		s := &d.shards[shardOf(base)]
		if !d.seqMode {
			s.mu.Lock()
		}
		if pg, ok := s.pages[base]; ok {
			for ; a < stop; a += mem.WordSize {
				if c := &pg.cells[cellIndex(a)]; c.touched() {
					*c = cell{}
					pg.used--
				}
			}
			if pg.used == 0 {
				delete(s.pages, base)
				// The memo must not outlive the page, which is about to be
				// recycled into the pool (possibly to another detector).
				if d.seqMode && d.memoPage == pg {
					d.memoPage = nil
				}
				putPage(pg)
			}
		} else {
			a = stop
		}
		if !d.seqMode {
			s.mu.Unlock()
		}
	}
}

// Release returns every cell page to the process-wide pool. The detector
// must not see further events; the service and the benchmark harness call
// it when a job's analysis is complete so the next job's page faults are
// pool hits instead of fresh allocations.
func (d *Detector) Release() {
	d.memoPage = nil
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for base, pg := range s.pages {
			delete(s.pages, base)
			putPage(pg)
		}
		s.mu.Unlock()
	}
}

// clockOf returns the live clock of task, creating it at epoch 1 if needed.
func (d *Detector) clockOf(task ompt.TaskID) *taskClock {
	if tc, ok := d.live.Load(task); ok {
		return tc.(*taskClock)
	}
	var vc vclock
	vc.set(task, 1)
	tc, _ := d.live.LoadOrStore(task, &taskClock{vc: vc})
	return tc.(*taskClock)
}

// OnSync implements ompt.Tool: builds the happens-before relation.
func (d *Detector) OnSync(e ompt.SyncEvent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.memoTC = nil // SyncTaskCreate may replace a task's clock object
	switch e.Kind {
	case ompt.SyncTaskCreate:
		parent := d.clockOf(e.Task)
		parent.mu.Lock()
		child := parent.vc.clone()
		child.set(e.Child, 1)
		parent.vc.bump(e.Task) // later parent ops are NOT ordered before the child
		parent.mu.Unlock()
		d.live.Store(e.Child, &taskClock{vc: child})
	case ompt.SyncTaskBegin:
		d.clockOf(e.Task)
	case ompt.SyncTaskEnd:
		tc := d.clockOf(e.Task)
		tc.mu.RLock()
		d.ended[e.Task] = tc.vc.clone()
		tc.mu.RUnlock()
	case ompt.SyncDependence:
		// e.Child completed before e.Task may proceed: join.
		succ := d.clockOf(e.Task)
		if pred, ok := d.ended[e.Child]; ok {
			succ.mu.Lock()
			succ.vc.join(pred)
			succ.mu.Unlock()
		}
	case ompt.SyncTaskWait:
		// The per-child joins arrive as SyncDependence events.
	}
}

// taskClockOf fetches the clock handle for task (creating it if the access
// raced ahead of its task-begin event). Lock-free on the common hit path.
func (d *Detector) taskClockOf(task ompt.TaskID) *taskClock {
	return d.clockOf(task)
}

// OnAccess implements ompt.Tool.
func (d *Detector) OnAccess(e ompt.AccessEvent) {
	var site uint32
	if d.seqMode {
		site = d.seqSites.lookup(d, e.Tag, e.Loc)
	} else {
		site = d.siteID(e.Tag, e.Loc)
	}
	d.check(e.Addr.Align(), accessRecord{
		task: e.Task, write: e.Write, site: site,
		device: e.Device, thread: e.Thread, seq: e.Clock,
	})
}

// OnDataOp implements ompt.Tool: transfers participate in the race check as
// reads of their source range and writes of their destination range,
// attributed to the task that performs them.
func (d *Detector) OnDataOp(e ompt.DataOpEvent) {
	var readBase, writeBase mem.Addr
	switch e.Kind {
	case ompt.OpAlloc, ompt.OpDelete:
		// Fresh or destroyed CV storage: reset its cells so a recycled
		// device address does not alias the previous occupant's accesses.
		d.clearRange(e.DevAddr, e.Bytes)
		return
	case ompt.OpTransferToDevice:
		readBase, writeBase = e.HostAddr, e.DevAddr
	case ompt.OpTransferFromDevice:
		readBase, writeBase = e.DevAddr, e.HostAddr
	default:
		return
	}
	site := d.siteID(e.Tag, e.Loc)
	for off := uint64(0); off < e.Bytes; off += mem.WordSize {
		d.check((readBase + mem.Addr(off)).Align(), accessRecord{
			task: e.Task, write: false, site: site, device: e.Device, seq: e.Clock,
		})
		d.check((writeBase + mem.Addr(off)).Align(), accessRecord{
			task: e.Task, write: true, site: site, device: e.Device, seq: e.Clock,
		})
	}
}

// OnAccessBatch implements ompt.BatchTool: the columnar fast path builds
// each compact record straight from the batch's arrays, interning the site
// once per run of same-site accesses (a loop body's accesses share their
// source location, so the memo almost always hits).
//
// In sequential mode the task clock and cell page are tracked in locals
// rather than through the detector's one-entry memos: a batch holds only
// access events (barrier events bound it), so no OnSync can swap
// a clock object and no clearRange can recycle a page mid-batch, and the
// loop touches detector state only on an actual task or page switch.
func (d *Detector) OnAccessBatch(b *ompt.AccessBatch) {
	n := b.Len()
	if !d.seqMode {
		// Concurrent shards each get a batch-local memo; the detector-level
		// one is reserved for the single-goroutine sequential path.
		var sm siteMemo
		for i := 0; i < n; i++ {
			ev := b.Events[i]
			d.check(b.Addrs[i].Align(), accessRecord{
				task: b.Tasks[i], write: b.Writes[i],
				site:   sm.lookup(d, ev.Tag, ev.Loc),
				device: b.Devices[i], thread: b.Threads[i], seq: b.Clocks[i],
			})
		}
		return
	}
	if n == 0 {
		return
	}
	// Hoist the column slices so the compiler proves one bounds check per
	// column for the whole batch instead of one per event.
	events, addrs := b.Events[:n], b.Addrs[:n]
	tasks, writes := b.Tasks[:n], b.Writes[:n]
	devices, threads, clocks := b.Devices[:n], b.Threads[:n], b.Clocks[:n]
	// With a site table, per-event site resolution is two array indexes and
	// the event payload is never touched; without one, fall back to the
	// hash memo over the payload's (Tag, Loc).
	var sitesCol []uint32
	var siteIDs []uint32
	if b.Sites != nil && len(b.SiteTags) > 0 {
		sitesCol = b.Sites[:n]
		siteIDs = d.siteTableIDs(b.SiteTags, b.SiteLocs)
	}
	var (
		curTask ompt.TaskID
		tc      *taskClock
		clock   uint64
		pgBase  mem.Addr
		pg      *cellPage
	)
	for i := 0; i < n; i++ {
		addr := addrs[i].Align()
		task := tasks[i]
		if tc == nil || task != curTask {
			tc = d.taskClockOf(task)
			curTask = task
			clock = tc.vc.get(task)
		}
		base := pageBase(addr)
		if pg == nil || base != pgBase {
			pg = d.pageSeq(base)
			pgBase = base
		}
		c := &pg.cells[cellIndex(addr)]
		if !c.touched() {
			pg.used++
		}
		var site uint32
		if sitesCol != nil {
			site = siteIDs[sitesCol[i]]
		} else {
			ev := events[i]
			site = d.seqSites.lookup(d, ev.Tag, ev.Loc)
		}
		d.checkCell(c, tc, addr, accessRecord{
			task: task, clock: clock, write: writes[i],
			site:   site,
			device: devices[i], thread: threads[i], seq: clocks[i],
		}, false)
	}
}

// check performs the FastTrack-style race check for one aligned word. The
// accessing task's clock is consulted under a read lock — no copy — so the
// common no-sync case stays O(1) per access. In sequential mode the shard
// mutex and the clock read lock are elided and the page/clock memos apply.
func (d *Detector) check(addr mem.Addr, rec accessRecord) {
	base := pageBase(addr)
	if d.seqMode {
		tc := d.memoTC
		if tc == nil || d.memoTask != rec.task {
			tc = d.taskClockOf(rec.task)
			d.memoTask, d.memoTC = rec.task, tc
			d.memoClock = tc.vc.get(rec.task)
		}
		rec.clock = d.memoClock
		pg := d.pageSeq(base)
		c := &pg.cells[cellIndex(addr)]
		if !c.touched() {
			pg.used++
		}
		d.checkCell(c, tc, addr, rec, false)
		return
	}

	tc := d.taskClockOf(rec.task)
	s := &d.shards[shardOf(base)]
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.pages[base]
	if !ok {
		pg = newPage()
		s.pages[base] = pg
	}
	c := &pg.cells[cellIndex(addr)]
	if !c.touched() {
		pg.used++
	}
	d.checkCell(c, tc, addr, rec, true)
}

// pageSeq resolves (creating if needed) the page at base in sequential
// mode: a one-entry memo of the last page, falling back to the shard map.
// The shard maps stay authoritative, so pages created under locked dispatch
// or by Restore are found, and clearRange/Release keep the memo coherent.
func (d *Detector) pageSeq(base mem.Addr) *cellPage {
	pg := d.memoPage
	if pg == nil || d.memoPageBase != base {
		s := &d.shards[shardOf(base)]
		if pg = s.pages[base]; pg == nil {
			pg = newPage()
			s.pages[base] = pg
		}
		d.memoPageBase, d.memoPage = base, pg
	}
	return pg
}

// checkCell runs the race check for one cell. The caller owns the cell
// (shard lock held, or sequential mode); lockTC guards the clock reads, and
// the sequential path pre-stamps rec.clock from its memo.
func (d *Detector) checkCell(c *cell, tc *taskClock, addr mem.Addr, rec accessRecord, lockTC bool) {
	if lockTC {
		tc.mu.RLock()
		rec.clock = tc.vc.get(rec.task)
	}
	// hb(r) below means "r happens before this access": r.clock <= the
	// accessing task's view of r.task. A same-task prior access always does
	// (clocks are monotone), so task equality short-circuits the VC read.
	vc := &tc.vc

	if rec.write {
		// write-write race?
		if w := &c.write; w.task != 0 && w.task != rec.task && w.clock > vc.get(w.task) {
			d.report(addr, rec, *w)
		}
		// read-write races?
		if r := &c.read0; r.task != 0 && r.task != rec.task && r.clock > vc.get(r.task) {
			d.report(addr, rec, *r)
		}
		for i := range c.reads {
			if r := &c.reads[i]; r.task != rec.task && r.clock > vc.get(r.task) {
				d.report(addr, rec, *r)
			}
		}
		if lockTC {
			tc.mu.RUnlock()
		}
		c.write = rec
		c.read0 = accessRecord{}
		c.reads = c.reads[:0] // reuse the backing array for the next read set
		return
	}
	// write-read race?
	if w := &c.write; w.task != 0 && w.task != rec.task && w.clock > vc.get(w.task) {
		d.report(addr, rec, *w)
	}
	// Discard reads ordered before this one (a same-task prior read always
	// is); what remains are genuinely concurrent readers, then this read.
	// Fast path: the read set is empty or just read0, and read0 is ordered
	// before us — the new read simply replaces it, no slice work at all.
	if len(c.reads) == 0 {
		if r := &c.read0; r.task == 0 || r.task == rec.task || r.clock <= vc.get(r.task) {
			if lockTC {
				tc.mu.RUnlock()
			}
			c.read0 = rec
			return
		}
		if lockTC {
			tc.mu.RUnlock()
		}
		if c.reads == nil {
			// First spill past read0: size for a typical concurrent-reader
			// set (worker threads of one parallel region) in one allocation
			// instead of growing 1 -> 2 -> 4 on subsequent readers.
			c.reads = make([]accessRecord, 0, 3)
		}
		c.reads = append(c.reads, rec)
		return
	}
	kept := c.reads[:0]
	if r := &c.read0; r.task != 0 && (r.task == rec.task || r.clock <= vc.get(r.task)) {
		// read0 is superseded: promote the oldest surviving overflow read.
		c.read0 = accessRecord{}
	}
	for i := range c.reads {
		r := &c.reads[i]
		if r.task == rec.task || r.clock <= vc.get(r.task) {
			continue
		}
		if c.read0.task == 0 {
			c.read0 = *r
			continue
		}
		kept = append(kept, *r)
	}
	if lockTC {
		tc.mu.RUnlock()
	}
	if c.read0.task == 0 {
		c.read0 = rec
		c.reads = kept
		return
	}
	c.reads = append(kept, rec)
}

func (d *Detector) report(addr mem.Addr, cur, prev accessRecord) {
	curSite, prevSite := d.site(cur.site), d.site(prev.site)
	kindWord := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	detail := fmt.Sprintf("Conflicting %s by task %d at %s is unordered with %s by task %d at %s.",
		kindWord(cur.write), cur.task, curSite.loc, kindWord(prev.write), prev.task, prevSite.loc)
	if cur.device != ompt.HostDevice && prev.device != ompt.HostDevice && curSite.tag != "" {
		// Both sides executed on a device: the paper's §III-C repair
		// suggestion applies — order the target constructs with depend
		// clauses instead of leaving them concurrent.
		detail += fmt.Sprintf(" Suggested fix: add depend(inout: %s) to the racing nowait constructs, or join them with a taskwait.", curSite.tag)
	}
	d.sink.AddAt(cur.seq, &report.Report{
		Tool:   d.Name(),
		Kind:   report.DataRace,
		Var:    curSite.tag,
		Addr:   addr,
		Size:   mem.WordSize,
		Write:  cur.write,
		Device: cur.device,
		Thread: cur.thread,
		Loc:    curSite.loc,
		Detail: detail,
	})
}

var _ ompt.Tool = (*Detector)(nil)
