package race

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/ompt"
)

// AccessState is the serializable form of one recorded access epoch.
type AccessState struct {
	Task   ompt.TaskID    `json:"task"`
	Clock  uint64         `json:"clock"`
	Write  bool           `json:"write"`
	Tag    string         `json:"tag,omitempty"`
	Loc    ompt.SourceLoc `json:"loc"`
	Device ompt.DeviceID  `json:"device"`
	Thread ompt.ThreadID  `json:"thread"`
	Seq    uint64         `json:"seq,omitempty"`
}

// CellState is the race state of one aligned word: the last write plus the
// concurrent read set.
type CellState struct {
	Addr  mem.Addr      `json:"addr"`
	Write AccessState   `json:"write"`
	Reads []AccessState `json:"reads,omitempty"`
}

// TaskVC pairs a task with its vector clock.
type TaskVC struct {
	Task ompt.TaskID `json:"task"`
	VC   VC          `json:"vc"`
}

// State is the serializable form of a Detector, captured at a replay
// checkpoint. Slices are sorted (by task id, by address) so the encoding is
// deterministic.
type State struct {
	Live  []TaskVC    `json:"live,omitempty"`
	Ended []TaskVC    `json:"ended,omitempty"`
	Cells []CellState `json:"cells,omitempty"`
}

func (d *Detector) toAccessState(r accessRecord) AccessState {
	sk := d.site(r.site)
	return AccessState{
		Task: r.task, Clock: r.clock, Write: r.write, Tag: sk.tag,
		Loc: sk.loc, Device: r.device, Thread: r.thread, Seq: r.seq,
	}
}

func (d *Detector) fromAccessState(a AccessState) accessRecord {
	return accessRecord{
		task: a.Task, clock: a.Clock, write: a.Write, site: d.siteID(a.Tag, a.Loc),
		device: a.Device, thread: a.Thread, seq: a.Seq,
	}
}

// Snapshot captures the detector's full happens-before state: live and
// ended task clocks plus every word's last-write/read-set cell. The sink is
// NOT included — the harness shares one sink across tools and serializes it
// once.
func (d *Detector) Snapshot() State {
	var st State
	for t, vc := range d.live {
		st.Live = append(st.Live, TaskVC{Task: t, VC: vc.toVC()})
	}
	for t, vc := range d.ended {
		st.Ended = append(st.Ended, TaskVC{Task: t, VC: vc.toVC()})
	}
	sort.Slice(st.Live, func(i, j int) bool { return st.Live[i].Task < st.Live[j].Task })
	sort.Slice(st.Ended, func(i, j int) bool { return st.Ended[i].Task < st.Ended[j].Task })

	for base, pg := range d.pages {
		for wi := range pg.cells {
			c := &pg.cells[wi]
			if !c.touched() {
				continue
			}
			cs := CellState{
				Addr:  base + mem.Addr(wi)*mem.WordSize,
				Write: d.toAccessState(c.write),
			}
			if c.read0.task != 0 {
				cs.Reads = append(cs.Reads, d.toAccessState(c.read0))
			}
			for _, r := range c.reads {
				cs.Reads = append(cs.Reads, d.toAccessState(r))
			}
			st.Cells = append(st.Cells, cs)
		}
	}
	sort.Slice(st.Cells, func(i, j int) bool { return st.Cells[i].Addr < st.Cells[j].Addr })
	return st
}

// Restore replaces the detector's state with a snapshot. The sink is left
// untouched (restored separately by the harness).
func (d *Detector) Restore(st State) error {
	d.live = make(map[ompt.TaskID]*vclock, len(st.Live))
	for _, t := range st.Live {
		vc := fromVC(t.VC)
		d.live[t.Task] = &vc
	}
	d.ended = make(map[ompt.TaskID]vclock, len(st.Ended))
	for _, t := range st.Ended {
		d.ended[t.Task] = fromVC(t.VC)
	}
	d.memoTC = nil
	d.Release()
	for _, cs := range st.Cells {
		c := cell{write: d.fromAccessState(cs.Write)}
		for i, r := range cs.Reads {
			if i == 0 {
				c.read0 = d.fromAccessState(r)
				continue
			}
			c.reads = append(c.reads, d.fromAccessState(r))
		}
		pg := d.page(pageBase(cs.Addr))
		slot := &pg.cells[cellIndex(cs.Addr)]
		if !slot.touched() {
			pg.used++
		}
		*slot = c
	}
	return nil
}
