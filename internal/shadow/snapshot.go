package shadow

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/mem"
)

// RegionState is the serializable form of one shadow region: its bounds,
// tag, and the raw value of every shadow word. The tag plane is not
// serialized — the words plane is always complete (every word carries its
// state bits in the low nibble), so Restore rebuilds tags from words and
// the wire format is unchanged from earlier releases.
type RegionState struct {
	Lo    mem.Addr `json:"lo"`
	Hi    mem.Addr `json:"hi"`
	Tag   string   `json:"tag"`
	Words []uint64 `json:"words"`
}

// MemoryState is the serializable form of a Memory, captured at a replay
// checkpoint (an epoch barrier, so no shadow word is mid-update).
type MemoryState struct {
	Regions []RegionState `json:"regions"`
	Peak    uint64        `json:"peak"`
}

// Snapshot captures the full shadow state: every registered region with its
// word values, plus the peak-bytes high-water mark. Regions come back in
// ascending address order.
func (m *Memory) Snapshot() MemoryState {
	st := MemoryState{Peak: m.peak}
	m.regions.Each(func(_ interval.Interval, r *Region) {
		rs := RegionState{Lo: r.Lo, Hi: r.Hi, Tag: r.Tag, Words: make([]uint64, len(r.words))}
		copy(rs.Words, r.words)
		st.Regions = append(st.Regions, rs)
	})
	return st
}

// Restore replaces the shadow state with a snapshot: regions are rebuilt
// with their saved word values (slabs leased from the arena) into a fresh
// index, and the tag planes recomputed. On error the memory is unchanged.
func (m *Memory) Restore(st MemoryState) error {
	regions := interval.New[*Region]()
	var total uint64
	fail := func(err error) error {
		regions.Each(func(_ interval.Interval, r *Region) { m.releaseRegion(r) })
		return err
	}
	for _, rs := range st.Regions {
		if rs.Lo >= rs.Hi || rs.Lo != rs.Lo.Align() || rs.Hi != rs.Hi.Align() {
			return fail(fmt.Errorf("shadow: restore: bad region bounds [%#x,%#x)", uint64(rs.Lo), uint64(rs.Hi)))
		}
		if want := int((rs.Hi - rs.Lo) / mem.WordSize); want != len(rs.Words) {
			return fail(fmt.Errorf("shadow: restore: region %q has %d words, bounds need %d", rs.Tag, len(rs.Words), want))
		}
		r := m.newRegion(rs.Lo, rs.Hi, rs.Tag, len(rs.Words))
		if err := regions.Insert(uint64(rs.Lo), uint64(rs.Hi), r); err != nil {
			m.releaseRegion(r)
			return fail(fmt.Errorf("shadow: restore: %w", err))
		}
		copy(r.words, rs.Words)
		r.rebuildTags()
		total += uint64(len(rs.Words)) * 8
	}
	m.regions.Each(func(_ interval.Interval, r *Region) { m.releaseRegion(r) })
	m.regions = regions
	clear(m.memo[:])
	m.bytes = total
	m.peak = max(st.Peak, total)
	return nil
}
