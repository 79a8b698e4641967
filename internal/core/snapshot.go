package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/interval"
	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/shadow"
)

// CVState is the serializable form of one live CV range (a cvEntry plus its
// indexed range, which is [CV, CV+Bytes)).
type CVState struct {
	Tag    string        `json:"tag"`
	OV     mem.Addr      `json:"ov"`
	CV     mem.Addr      `json:"cv"`
	Bytes  uint64        `json:"bytes"`
	Device ompt.DeviceID `json:"device"`
}

// AllocState is the serializable form of one tracked host allocation.
type AllocState struct {
	Base  mem.Addr       `json:"base"`
	Bytes uint64         `json:"bytes"`
	Tag   string         `json:"tag"`
	Loc   ompt.SourceLoc `json:"loc"`
}

// WordState is one (address, raw shadow word) pair from the wide- or
// byte-granularity overlay maps.
type WordState struct {
	Addr mem.Addr `json:"addr"`
	Val  uint64   `json:"val"`
}

// State is the serializable form of an Arbalest detector, captured at a
// replay checkpoint (an epoch barrier, so no shadow word is mid-update).
// The report sink is NOT included — the harness shares one sink across
// tools and serializes it once. Options are not included either: restore
// targets a fresh detector constructed with the same options.
type State struct {
	Shadow      shadow.MemoryState `json:"shadow"`
	CVs         []CVState          `json:"cvs,omitempty"`
	Allocs      []AllocState       `json:"allocs,omitempty"`
	Unified     []ompt.DeviceID    `json:"unified,omitempty"`
	Devices     int                `json:"devices"`
	Multi       bool               `json:"multi"`
	WideWords   []WordState        `json:"wideWords,omitempty"`
	ByteWords   []WordState        `json:"byteWords,omitempty"`
	AccessCount uint64             `json:"accessCount"`
}

func snapshotWords(m map[mem.Addr]uint64) []WordState {
	out := make([]WordState, 0, len(m))
	for a, v := range m {
		out = append(out, WordState{Addr: a, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func restoreWords(ws []WordState) map[mem.Addr]uint64 {
	m := make(map[mem.Addr]uint64, len(ws))
	for _, w := range ws {
		m[w.Addr] = w.Val
	}
	return m
}

// Snapshot captures the detector's full analysis state. Slices are sorted so
// the encoding is deterministic.
func (a *Arbalest) Snapshot() State {
	st := State{
		Shadow:      a.shadowMem.Snapshot(),
		Devices:     a.devices,
		Multi:       a.multi,
		WideWords:   snapshotWords(a.wideWords),
		ByteWords:   snapshotWords(a.byteWords),
		AccessCount: a.accessCount,
	}
	// The CV index visits ranges in ascending CV order, so the encoding is
	// deterministic.
	a.cvs.Each(func(_ interval.Interval, e *cvEntry) {
		st.CVs = append(st.CVs, CVState{Tag: e.tag, OV: e.ov, CV: e.cv, Bytes: e.bytes, Device: e.device})
	})
	for base, info := range a.allocs {
		st.Allocs = append(st.Allocs, AllocState{Base: base, Bytes: info.bytes, Tag: info.tag, Loc: info.loc})
	}
	for dev, unified := range a.unified {
		if unified {
			st.Unified = append(st.Unified, dev)
		}
	}
	sort.Slice(st.Allocs, func(i, j int) bool { return st.Allocs[i].Base < st.Allocs[j].Base })
	slices.Sort(st.Unified)
	return st
}

// Restore replaces the detector's analysis state with a snapshot. The sink
// and options are left untouched; the caller must have constructed the
// detector with the same options the snapshot was taken under. Snapshots
// that older releases took of live runs also carry per-thread clocks;
// decoding ignores them.
func (a *Arbalest) Restore(st State) error {
	if err := a.shadowMem.Restore(st.Shadow); err != nil {
		return err
	}

	cvs := interval.New[*cvEntry]()
	for _, cv := range st.CVs {
		e := &cvEntry{tag: cv.Tag, ov: cv.OV, cv: cv.CV, bytes: cv.Bytes, device: cv.Device}
		if err := cvs.Insert(uint64(cv.CV), uint64(cv.CV)+cv.Bytes, e); err != nil {
			return fmt.Errorf("core: restore CV %q: %w", cv.Tag, err)
		}
	}
	a.cvs = cvs

	a.devices = st.Devices
	a.allocs = make(map[mem.Addr]allocInfo, len(st.Allocs))
	for _, al := range st.Allocs {
		a.allocs[al.Base] = allocInfo{bytes: al.Bytes, tag: al.Tag, loc: al.Loc}
	}
	a.unified = make(map[ompt.DeviceID]bool, len(st.Unified))
	for _, dev := range st.Unified {
		a.unified[dev] = true
	}
	a.multi = st.Multi
	a.wideWords = restoreWords(st.WideWords)
	a.byteWords = restoreWords(st.ByteWords)
	a.accessCount = st.AccessCount
	return nil
}
