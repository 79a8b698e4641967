package shadow

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Memory is a direct-mapped shadow memory.
//
// The detector registers one region per mapped variable's OV; Memory
// allocates a slab with one shadow word per aligned 8-byte application word
// and resolves addresses to slab slots in O(log m) via a range index
// (m = number of registered regions; internal/interval). Slabs come from a
// pooled arena reused across jobs.
//
// Its owner delivers one event at a time (the ompt.Tool contract), so the
// memory takes no locks: words, the index and the byte counts are read and
// written with plain loads and stores, every write keeps the tag plane
// current, and a region memo fronts the index. A region is unregistered
// only by a deallocation event, never while a lookup is in flight.
type Memory struct {
	regions *interval.Index[*Region]

	// memo caches the last region resolved per address granule, so the
	// index is only searched on region changes. Register and Unregister
	// clear it.
	memo [memoSlots]*Region

	bytes uint64 // current shadow bytes allocated (logical words × 8)
	peak  uint64 // high-water mark (space-overhead experiment, Fig 9)

	arena *mem.SlabArena

	// stats, when non-nil, counts region lookups and memo hits. Set once
	// via SetStats before the first lookup.
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
// planes over the same words: the full 64-bit metadata words, and a packed
// nibble-per-word tag plane mirroring just their 4 state/init bits, so
// state-only checks read 16 words of VSM state per cache line and
// transitions run off a table. Store keeps the two in step.
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
// which must lie inside the region. Writing through it bypasses the tag
// plane; analyzers write through Store.
func (r *Region) WordAt(addr mem.Addr) *uint64 {
	return &r.words[r.Index(addr)]
}

// Load reads word wi.
func (r *Region) Load(wi int) Word { return Word(r.words[wi]) }

// Store writes word wi and mirrors its low nibble into the tag plane.
func (r *Region) Store(wi int, w Word) {
	r.words[wi] = uint64(w)
	r.setTag(wi, uint8(w&0xF))
}

// TagAt returns the 4 state/init bits of word wi from the tag plane.
func (r *Region) TagAt(wi int) uint8 {
	return uint8(r.tags[wi/tagsPerWord]>>(uint(wi%tagsPerWord)*4)) & 0xF
}

func (r *Region) setTag(wi int, tag uint8) {
	chunk := &r.tags[wi/tagsPerWord]
	shift := uint(wi%tagsPerWord) * 4
	*chunk = *chunk&^(0xF<<shift) | uint64(tag)<<shift
}

// rebuildTags recomputes the whole tag plane from the words plane
// (restoring a snapshot).
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

// NewMemory returns an empty shadow memory backed by the process-wide
// slab arena.
func NewMemory() *Memory { return NewMemoryArena(defaultArena) }

// NewMemoryArena returns an empty shadow memory backed by the given arena.
func NewMemoryArena(a *mem.SlabArena) *Memory {
	return &Memory{regions: interval.New[*Region](), arena: a}
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

// releaseRegion returns a region's slabs to the arena; the caller drops
// the region from the index and the memo.
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
	r := m.newRegion(alo, ahi, tag, n)
	if err := m.regions.Insert(uint64(alo), uint64(ahi), r); err != nil {
		m.releaseRegion(r)
		return nil, fmt.Errorf("shadow: register %q: %w", tag, err)
	}
	clear(m.memo[:])
	m.bytes += uint64(n) * 8
	m.peak = max(m.peak, m.bytes)
	return r, nil
}

// Unregister removes the region starting at lo and returns its slabs to
// the arena. It reports whether a region was removed.
func (m *Memory) Unregister(lo mem.Addr) bool {
	alo := lo.Align()
	_, r, ok := m.regions.Stab(uint64(alo))
	if !ok || r.Lo != alo || !m.regions.Delete(uint64(alo)) {
		return false
	}
	clear(m.memo[:])
	m.bytes -= uint64(r.NumWords()) * 8
	m.releaseRegion(r)
	return true
}

// Release drops every region and returns all slabs to the arena, and
// reports the memory's peak demand so the arena's retention cap can grow
// to match. Call at job/session teardown, after the last dispatch and
// after any Snapshot — never concurrently with accesses.
func (m *Memory) Release() {
	m.regions.Each(func(_ interval.Interval, r *Region) { m.releaseRegion(r) })
	m.regions = interval.New[*Region]()
	clear(m.memo[:])
	m.bytes = 0
	m.arena.NoteDemand(m.peak)
}

// SetStats attaches a telemetry collector that counts this memory's
// region lookups and memo hits. Call it before the first lookup.
func (m *Memory) SetStats(s *telemetry.AnalyzerStats) { m.stats = s }

// RegionOf returns the region containing addr, or nil. A per-granule memo
// short-circuits the index while the access stream stays inside one region.
func (m *Memory) RegionOf(addr mem.Addr) *Region {
	slot := &m.memo[(uint64(addr)>>memoShift)%memoSlots]
	if r := *slot; r != nil && addr >= r.Lo && addr < r.Hi {
		m.stats.RecordMemoHit()
		return r
	}
	m.stats.RecordTreeLookup()
	_, r, ok := m.regions.Stab(uint64(addr))
	if ok {
		*slot = r
	}
	return r
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
// ok=false when addr is unmapped. It is the state-only fast path: it reads
// a nibble from the tag plane — 16 words of VSM state per cache line — and
// never touches the metadata plane.
func (m *Memory) Probe(addr mem.Addr) (State, bool) {
	r := m.RegionOf(addr)
	if r == nil {
		return Invalid, false
	}
	return TagState(r.TagAt(r.Index(addr))), true
}

// NumRegions returns the number of registered regions.
func (m *Memory) NumRegions() int { return m.regions.Len() }

// Bytes returns the shadow bytes currently allocated. This counts logical
// shadow words (8 bytes per application word, the paper's Fig 9 metric),
// not arena slack or the tag plane's 1/16 overhead.
func (m *Memory) Bytes() uint64 { return m.bytes }

// PeakBytes returns the high-water mark of shadow bytes.
func (m *Memory) PeakBytes() uint64 { return m.peak }
