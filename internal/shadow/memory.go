package shadow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Mode selects the concurrency discipline for shadow-word updates. The
// trade is correctness under concurrency versus raw speed when an analyzer
// has exclusive ownership of its words (paper Theorem 1):
//
//   - ModeShared (the zero value) is the paper's §IV-C lock-free design:
//     every word update is an atomic compare-and-swap, safe for genuinely
//     concurrent callers (online OpenMP runtimes, shared stream sessions).
//   - ModeSeq is for single-goroutine dispatch (replay, exclusive stream
//     sessions). Updates are plain load/store, and it maintains the
//     nibble-per-word tag plane, so state-only checks read 16 words of
//     VSM state per cache line and transitions run off a table.
type Mode uint8

// The shadow update modes.
const (
	ModeShared Mode = iota
	ModeSeq
)

// Memory is a direct-mapped shadow memory.
//
// The detector registers one region per mapped variable's OV; Memory
// allocates a slab with one shadow word per aligned 8-byte application word
// and resolves addresses to slab slots in O(log m) via an interval tree
// (m = number of registered regions), exactly the structure the paper
// describes. Slabs come from a pooled arena reused across jobs, and word
// updates follow the current Mode's discipline.
type Memory struct {
	mu      sync.Mutex // serializes Register/Unregister and index rebuilds
	regions *interval.Tree[*Region]

	// index is an immutable sorted snapshot of the registered regions,
	// rebuilt and atomically published on every Register/Unregister. The
	// per-access RegionOf lookup binary-searches it with no lock at all —
	// registrations happen at allocation events, which are barriers during
	// replay and rare online, so readers never see a torn view.
	index atomic.Pointer[regionIndex]

	// memo caches the last region resolved per address granule, so the
	// binary search only runs on region changes. Consulted only outside
	// ModeShared: replay registers/unregisters regions at barrier events,
	// so a memoized pointer can never go stale mid-epoch there, while an
	// online session may unregister concurrently with lookups.
	memo [memoSlots]atomic.Pointer[Region]

	bytes atomic.Uint64 // current shadow bytes allocated (logical words × 8)
	peak  atomic.Uint64 // high-water mark (space-overhead experiment, Fig 9)

	mode  Mode
	arena *mem.SlabArena

	// stats, when non-nil, counts region lookups and memo hits. Set once
	// via SetStats before the memory sees concurrent traffic.
	stats *telemetry.AnalyzerStats
}

// memoSlots is the size of the last-region memo; slots are selected by
// 128-byte address granule.
const (
	memoSlots = 64
	memoShift = 7
)

// tagsPerWord is the number of 4-bit VSM tags packed into one uint64 of
// the tag plane — one 64-byte cache line of tags covers 256 words.
const tagsPerWord = 16

// defaultArena backs every Memory that isn't given a private arena,
// pooling slabs across the jobs and sessions of the whole process.
var defaultArena = mem.NewSlabArena()

// DefaultArena returns the process-wide slab arena shadow memories
// allocate from by default.
func DefaultArena() *mem.SlabArena { return defaultArena }

// Region is the shadow slab for one registered OV range. It holds two
// planes over the same words: the full 64-bit metadata words, always
// current in every mode, and — maintained only in ModeSeq — a packed
// nibble-per-word tag plane holding just the 4 state/init bits.
type Region struct {
	Lo, Hi mem.Addr // half-open application range, 8-byte aligned
	Tag    string
	words  []uint64
	tags   []uint64

	wordsSlab mem.Slab
	tagsSlab  mem.Slab
}

// NumWords returns the number of shadow words in the region.
func (r *Region) NumWords() int { return len(r.words) }

// Index returns the word index for the application address addr, which
// must lie inside the region.
func (r *Region) Index(addr mem.Addr) int {
	return int((addr.Align() - r.Lo) / mem.WordSize)
}

// WordAt returns the shadow slot for the aligned application address addr,
// which must lie inside the region. The slot is CAS-updated via Update in
// ModeShared and plainly written otherwise.
func (r *Region) WordAt(addr mem.Addr) *uint64 {
	return &r.words[r.Index(addr)]
}

// Slot returns the raw storage of word wi for CAS updates via Update
// (ModeShared callers).
func (r *Region) Slot(wi int) *uint64 { return &r.words[wi] }

// Load atomically reads word wi (ModeShared readers).
func (r *Region) Load(wi int) Word { return Word(atomic.LoadUint64(&r.words[wi])) }

// LoadPlain reads word wi without synchronization (ModeSeq).
func (r *Region) LoadPlain(wi int) Word { return Word(r.words[wi]) }

// StoreSeq writes word wi and mirrors its low nibble into the tag plane
// (ModeSeq only — single-goroutine callers).
func (r *Region) StoreSeq(wi int, w Word) {
	r.words[wi] = uint64(w)
	r.setTag(wi, uint8(w&0xF))
}

// TagAt returns the 4 state/init bits of word wi from the tag plane.
// Valid only in ModeSeq, where the plane is maintained.
func (r *Region) TagAt(wi int) uint8 {
	return uint8(r.tags[wi/tagsPerWord]>>(uint(wi%tagsPerWord)*4)) & 0xF
}

func (r *Region) setTag(wi int, tag uint8) {
	chunk := &r.tags[wi/tagsPerWord]
	shift := uint(wi%tagsPerWord) * 4
	*chunk = *chunk&^(0xF<<shift) | uint64(tag)<<shift
}

// rebuildTags recomputes the whole tag plane from the words plane (entering
// ModeSeq, restoring a snapshot).
func (r *Region) rebuildTags() {
	clear(r.tags)
	for i, w := range r.words {
		r.tags[i/tagsPerWord] |= uint64(w&0xF) << (uint(i%tagsPerWord) * 4)
	}
}

// EachWord calls fn for every (aligned address, word value) pair in the
// region.
func (r *Region) EachWord(fn func(addr mem.Addr, w Word)) {
	for i := range r.words {
		fn(r.Lo+mem.Addr(i*mem.WordSize), Word(r.words[i]))
	}
}

// regionIndex is an immutable sorted-by-Lo view of the registered regions.
type regionIndex struct {
	los     []uint64
	his     []uint64
	regions []*Region
}

// find returns the region containing p, or nil. Regions never overlap.
func (ix *regionIndex) find(p uint64) *Region {
	i := sort.Search(len(ix.los), func(i int) bool { return ix.los[i] > p })
	if i == 0 || p >= ix.his[i-1] {
		return nil
	}
	return ix.regions[i-1]
}

// NewMemory returns an empty shadow memory backed by the process-wide
// slab arena.
func NewMemory() *Memory { return NewMemoryArena(defaultArena) }

// NewMemoryArena returns an empty shadow memory backed by the given arena.
func NewMemoryArena(a *mem.SlabArena) *Memory {
	m := &Memory{regions: interval.New[*Region](), arena: a}
	m.index.Store(&regionIndex{})
	return m
}

// SetMode switches the update discipline. It must be called while no
// other goroutine is touching the memory — in practice before a replay or
// session starts dispatching. Entering ModeSeq rebuilds the tag planes
// from the words planes so the two agree.
func (m *Memory) SetMode(mode Mode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mode = mode
	m.clearMemo()
	if mode == ModeSeq {
		for _, r := range m.index.Load().regions {
			r.rebuildTags()
		}
	}
}

// Mode returns the current update discipline.
func (m *Memory) Mode() Mode { return m.mode }

// publish rebuilds the lookup snapshot from the region tree. Caller holds
// m.mu.
func (m *Memory) publish() {
	ix := &regionIndex{}
	m.regions.Each(func(iv interval.Interval, r *Region) {
		ix.los = append(ix.los, iv.Lo)
		ix.his = append(ix.his, iv.Hi)
		ix.regions = append(ix.regions, r)
	})
	m.index.Store(ix)
}

// clearMemo invalidates the last-region memo. Caller holds m.mu.
func (m *Memory) clearMemo() {
	for i := range m.memo {
		m.memo[i].Store(nil)
	}
}

// newRegion leases both planes for a region of n words from the arena.
// Arena slabs are zeroed on lease, matching the paper's initial
// [Host:0, Accel:0] tuple.
func (m *Memory) newRegion(lo, hi mem.Addr, tag string, n int) *Region {
	r := &Region{Lo: lo, Hi: hi, Tag: tag}
	r.wordsSlab = m.arena.Get(n)
	r.tagsSlab = m.arena.Get((n + tagsPerWord - 1) / tagsPerWord)
	r.words = r.wordsSlab.Data
	r.tags = r.tagsSlab.Data
	return r
}

// releaseRegion returns a region's slabs to the arena. Caller must
// guarantee no goroutine can still reach the region.
func (m *Memory) releaseRegion(r *Region) {
	m.arena.Put(r.wordsSlab)
	m.arena.Put(r.tagsSlab)
	r.words, r.tags = nil, nil
	r.wordsSlab, r.tagsSlab = mem.Slab{}, mem.Slab{}
}

// Register creates a shadow region covering [lo, lo+size). The bounds are
// widened to 8-byte alignment. All words start as the zero Word: VSM state
// invalid, nothing initialized — the paper's initial [Host:0, Accel:0] tuple.
func (m *Memory) Register(lo mem.Addr, size uint64, tag string) (*Region, error) {
	alo := lo.Align()
	ahi := (lo + mem.Addr(size) + mem.WordSize - 1).Align()
	n := int((ahi - alo) / mem.WordSize)
	m.mu.Lock()
	r := m.newRegion(alo, ahi, tag, n)
	if err := m.regions.Insert(uint64(alo), uint64(ahi), r); err != nil {
		m.releaseRegion(r)
		m.mu.Unlock()
		return nil, fmt.Errorf("shadow: register %q: %w", tag, err)
	}
	m.publish()
	m.clearMemo()
	m.mu.Unlock()
	nb := m.bytes.Add(uint64(n) * 8)
	for {
		p := m.peak.Load()
		if nb <= p || m.peak.CompareAndSwap(p, nb) {
			break
		}
	}
	return r, nil
}

// Unregister removes the region starting at lo. It reports whether a region
// was removed. Outside ModeShared the region's slabs go straight back to
// the arena (deallocation events are dispatch barriers, so no reader can
// hold the region); in ModeShared a concurrent reader may still hold the
// region pointer, so its storage is left to the garbage collector.
func (m *Memory) Unregister(lo mem.Addr) bool {
	alo := lo.Align()
	m.mu.Lock()
	defer m.mu.Unlock()
	_, r, ok := m.regions.Stab(uint64(alo))
	if !ok || r.Lo != alo {
		return false
	}
	if m.regions.Delete(uint64(r.Lo)) {
		m.publish()
		m.clearMemo()
		m.bytes.Add(^(uint64(r.NumWords())*8 - 1)) // subtract
		if m.mode != ModeShared {
			m.releaseRegion(r)
		}
		return true
	}
	return false
}

// Release drops every region and returns all slabs to the arena, and
// reports the memory's peak demand so the arena's retention cap can grow
// to match. Call at job/session teardown, after the last dispatch and
// after any Snapshot — never concurrently with accesses.
func (m *Memory) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.index.Load().regions {
		m.releaseRegion(r)
	}
	m.regions = interval.New[*Region]()
	m.index.Store(&regionIndex{})
	m.clearMemo()
	m.bytes.Store(0)
	m.arena.NoteDemand(m.peak.Load())
}

// SetStats attaches a telemetry collector that counts this memory's
// region lookups and memo hits. It must be called before the memory sees
// concurrent traffic (the detector enables stats before replay starts).
func (m *Memory) SetStats(s *telemetry.AnalyzerStats) { m.stats = s }

// RegionOf returns the region containing addr, or nil. The lookup reads the
// immutable snapshot — no lock — so concurrent accesses scale; outside
// ModeShared a per-granule memo short-circuits the binary search while the
// access stream stays inside one region.
func (m *Memory) RegionOf(addr mem.Addr) *Region {
	if m.mode != ModeShared {
		slot := &m.memo[(uint64(addr)>>memoShift)%memoSlots]
		if r := slot.Load(); r != nil && addr >= r.Lo && addr < r.Hi {
			m.stats.RecordMemoHit()
			return r
		}
		m.stats.RecordTreeLookup()
		r := m.index.Load().find(uint64(addr))
		if r != nil {
			slot.Store(r)
		}
		return r
	}
	m.stats.RecordTreeLookup()
	return m.index.Load().find(uint64(addr))
}

// Lookup resolves addr to its region and word index, or (nil, -1) if addr
// is not inside any registered region.
func (m *Memory) Lookup(addr mem.Addr) (*Region, int) {
	r := m.RegionOf(addr)
	if r == nil {
		return nil, -1
	}
	return r, r.Index(addr)
}

// WordAt returns the shadow slot for addr, or nil if addr is not inside any
// registered region.
func (m *Memory) WordAt(addr mem.Addr) *uint64 {
	r := m.RegionOf(addr)
	if r == nil {
		return nil
	}
	return r.WordAt(addr)
}

// Probe returns the VSM state of the word containing addr, reporting
// ok=false when addr is unmapped. It is the state-only fast path: in
// ModeSeq it reads a nibble from the tag plane — 16 words of VSM state per
// cache line — and never touches the metadata plane.
func (m *Memory) Probe(addr mem.Addr) (State, bool) {
	r := m.RegionOf(addr)
	if r == nil {
		return Invalid, false
	}
	wi := r.Index(addr)
	if m.mode == ModeSeq {
		return TagState(r.TagAt(wi)), true
	}
	return r.Load(wi).State(), true
}

// NumRegions returns the number of registered regions. It reads the
// published index snapshot, so it is safe against concurrent
// Register/Unregister.
func (m *Memory) NumRegions() int { return len(m.index.Load().regions) }

// Bytes returns the shadow bytes currently allocated. This counts logical
// shadow words (8 bytes per application word, the paper's Fig 9 metric),
// not arena slack or the tag plane's 1/16 overhead.
func (m *Memory) Bytes() uint64 { return m.bytes.Load() }

// PeakBytes returns the high-water mark of shadow bytes.
func (m *Memory) PeakBytes() uint64 { return m.peak.Load() }

// Update atomically applies fn to the shadow word in slot until the CAS
// succeeds, returning the old and new values. fn must be pure. This is the
// ModeShared discipline; ModeSeq writes through StoreSeq.
func Update(slot *uint64, fn func(Word) Word) (old, new Word) {
	for {
		o := Word(atomic.LoadUint64(slot))
		n := fn(o)
		if o == n || atomic.CompareAndSwapUint64(slot, uint64(o), uint64(n)) {
			return o, n
		}
	}
}
