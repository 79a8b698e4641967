// Package core implements ARBALEST, the on-the-fly data mapping issue
// detector that is this repository's primary contribution (paper §IV-V).
//
// ARBALEST observes the offloading runtime through the ompt interface. For
// every host allocation it registers a shadow region holding one packed
// shadow word per aligned 8-byte application word (paper Table II). Mapping
// operations and application accesses drive the per-word variable state
// machine (internal/vsm); when the machine has no transition for a read —
// a read in `invalid`, a device read in `host`, or a host read in `target` —
// ARBALEST emits a data mapping issue report, classified as a use of
// uninitialized memory or a use of stale data by the initialization bits.
//
// An interval tree over live CV ranges resolves device addresses back to
// host shadow state in O(log m) and powers the buffer-overflow extension
// (paper §IV-D): a device access whose address falls outside the interval of
// the CV it was issued against escaped its mapping.
//
// All shadow updates are lock-free compare-and-swap operations, so the
// analysis runs fully concurrently with the application (paper §IV-C).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/mem"
	"repro/internal/ompt"
	"repro/internal/report"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/vsm"
)

// Granularity selects the tracking granularity.
type Granularity uint8

const (
	// GranularityWord tracks every aligned 8-byte word independently (the
	// paper's choice, required for soundness — §IV-C).
	GranularityWord Granularity = iota
	// GranularityRegion keeps a single state for each mapped variable.
	// Provided for the ablation experiment: it is faster but unsound for
	// partial updates, mirroring the coarse tracking of X10CUDA/OpenARC
	// the paper contrasts against (§VII-A).
	GranularityRegion
	// GranularityByte tracks every byte independently — the fully sound
	// granularity the paper identifies (§IV-C: "applying VSM at byte-level
	// granularity is requisite for soundness") but does not implement for
	// cost reasons. Provided to complete the ablation spectrum: it removes
	// the conservative sub-word reports of GranularityWord at ~8x the
	// shadow cost.
	GranularityByte
)

// Options configures the detector.
type Options struct {
	// DetectOverflow enables the buffer-overflow extension (default on;
	// disable only for ablation).
	DisableOverflow bool
	// Granularity selects word or per-region tracking (default word).
	Granularity Granularity
	// Sink receives reports; a fresh sink is created when nil.
	Sink *report.Sink
	// Stats, when non-nil, receives analyzer-level telemetry: VSM state
	// transitions per (from, to) pair, shadow-word CAS retries, and
	// interval-tree lookups. Nil (the default) disables collection; the
	// hot paths then pay only a nil check. EnableStats attaches a fresh
	// collector after construction.
	Stats *telemetry.AnalyzerStats
}

// cvEntry is one live CV range in the interval tree.
type cvEntry struct {
	tag    string
	ov     mem.Addr
	cv     mem.Addr
	bytes  uint64
	device ompt.DeviceID
}

type allocInfo struct {
	bytes uint64
	tag   string
	loc   ompt.SourceLoc
}

// Arbalest is the detector. Register it with the runtime at construction:
//
//	a := core.New(core.Options{})
//	rt := omp.NewRuntime(omp.Config{}, a)
type Arbalest struct {
	opts Options
	sink *report.Sink

	shadowMem *shadow.Memory
	cvTree    *interval.Tree[*cvEntry]

	// cvSnap is an immutable snapshot of the live CV ranges, rebuilt and
	// atomically published on every mapping mutation (OnDataOp). The access
	// hot path resolves CV -> OV against the snapshot with two binary
	// searches and no lock, so concurrent runtime threads never serialize on
	// resolution (paper §IV-C's lock-free claim, extended to the lookup
	// structure). cvTree remains the mutation-side source of truth (overlap
	// checking, repair's Each traversal).
	cvSnap atomic.Pointer[cvIndex]

	// unifiedSnap is the copy-on-write set of unified-memory devices,
	// published by OnDeviceInit and read lock-free by OnAccess.
	unifiedSnap atomic.Pointer[map[ompt.DeviceID]bool]

	mu      sync.Mutex
	allocs  map[mem.Addr]allocInfo
	devices int

	// multi-device mode: a packed vsm.Tuple per aligned word, used instead
	// of the two-location shadow word when more than one device exists.
	multi     atomic.Bool
	wideMu    sync.Mutex
	wideWords map[mem.Addr]*atomic.Uint64

	// byte-granularity mode: one shadow word per byte, allocated lazily.
	byteMu    sync.Mutex
	byteWords map[mem.Addr]*atomic.Uint64

	clocks sync.Map // ompt.ThreadID -> *atomic.Uint64

	// repairer, when attached, fixes stale accesses on the fly (§III-C).
	repairer Repairer

	accessCount atomic.Uint64

	// mode is the dispatch regime announced by the event source (replay
	// driver, stream session). It selects the shadow update discipline:
	// CAS under shared dispatch, plain stores when a single goroutine owns
	// every word exclusively (Theorem 1). Written only before dispatch
	// begins, read on the hot path.
	mode ompt.DispatchMode

	// stats, when non-nil, collects analyzer-level telemetry. Set at
	// construction (Options.Stats) or via EnableStats before replay.
	stats *telemetry.AnalyzerStats
}

// New creates a detector.
func New(opts Options) *Arbalest {
	if opts.Sink == nil {
		opts.Sink = report.NewSink()
	}
	a := &Arbalest{
		opts:      opts,
		sink:      opts.Sink,
		shadowMem: shadow.NewMemory(),
		cvTree:    interval.New[*cvEntry](),
		allocs:    make(map[mem.Addr]allocInfo),
		wideWords: make(map[mem.Addr]*atomic.Uint64),
		byteWords: make(map[mem.Addr]*atomic.Uint64),
		stats:     opts.Stats,
	}
	a.cvSnap.Store(&cvIndex{})
	empty := map[ompt.DeviceID]bool{}
	a.unifiedSnap.Store(&empty)
	a.shadowMem.SetStats(a.stats)
	return a
}

// cvIndex is an immutable sorted-by-CV-base view of the live CV ranges.
// Readers binary-search it lock-free; mutations build a fresh one.
type cvIndex struct {
	los     []uint64 // sorted CV range starts
	his     []uint64 // matching CV range ends (half-open)
	entries []*cvEntry
}

// stab returns the entry whose CV range contains p, or nil. Live CV ranges
// never overlap (cvTree.Insert enforces it), so the candidate is unique.
// The binary search is open-coded: sort.Search costs an indirect closure
// call per probe, which is most of the lookup for the handful of ranges a
// workload keeps live.
func (ix *cvIndex) stab(p uint64) *cvEntry {
	lo, hi := 0, len(ix.los)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.los[mid] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || p >= ix.his[lo-1] {
		return nil
	}
	return ix.entries[lo-1]
}

// publishCV rebuilds the CV snapshot from cvTree and atomically publishes
// it. Called from OnDataOp after every tree mutation; mapping operations are
// orders of magnitude rarer than accesses, so the rebuild is cheap where it
// matters.
func (a *Arbalest) publishCV() {
	ix := &cvIndex{}
	a.cvTree.Each(func(iv interval.Interval, e *cvEntry) {
		ix.los = append(ix.los, iv.Lo)
		ix.his = append(ix.his, iv.Hi)
		ix.entries = append(ix.entries, e)
	})
	a.cvSnap.Store(ix)
}

// EnableStats attaches (creating if needed) a telemetry collector and
// returns it. It must be called before the detector sees events — the
// service enables stats on a fresh analyzer before replay begins.
func (a *Arbalest) EnableStats() *telemetry.AnalyzerStats {
	if a.stats == nil {
		a.stats = telemetry.NewAnalyzerStats()
		a.shadowMem.SetStats(a.stats)
	}
	return a.stats
}

// AnalyzerStats returns the attached telemetry collector, nil when stats
// are disabled.
func (a *Arbalest) AnalyzerStats() *telemetry.AnalyzerStats { return a.stats }

// SetDispatchMode implements ompt.ModalTool: the event source announces
// its concurrency regime before dispatch starts, and the detector relaxes
// the shadow-word discipline to match — plain stores plus the compact tag
// plane under exclusive sequential ownership, lock-free CAS (the paper's
// §IV-C design) otherwise. Never called concurrently with event callbacks.
func (a *Arbalest) SetDispatchMode(m ompt.DispatchMode) {
	a.mode = m
	if m == ompt.DispatchSequential {
		a.shadowMem.SetMode(shadow.ModeSeq)
	} else {
		a.shadowMem.SetMode(shadow.ModeShared)
	}
}

// Release returns the detector's shadow slabs to the arena for reuse by
// the next job. Call after the last event and after any state snapshot.
func (a *Arbalest) Release() { a.shadowMem.Release() }

// Name implements ompt.Tool.
func (a *Arbalest) Name() string { return "Arbalest" }

// Sink returns the report sink.
func (a *Arbalest) Sink() *report.Sink { return a.sink }

// Reports returns the recorded reports.
func (a *Arbalest) Reports() []*report.Report { return a.sink.Reports() }

// ShadowBytes returns the peak shadow memory footprint in bytes, the
// detector's contribution to the space-overhead experiment (paper Fig. 9).
func (a *Arbalest) ShadowBytes() uint64 {
	extra := uint64(0)
	a.wideMu.Lock()
	extra = uint64(len(a.wideWords)) * 8
	a.wideMu.Unlock()
	a.byteMu.Lock()
	extra += uint64(len(a.byteWords)) * 8
	a.byteMu.Unlock()
	return a.shadowMem.PeakBytes() + extra
}

// AccessCount returns the number of instrumented accesses analyzed.
func (a *Arbalest) AccessCount() uint64 { return a.accessCount.Load() }

// OnDeviceInit implements ompt.Tool.
func (a *Arbalest) OnDeviceInit(e ompt.DeviceInitEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.unifiedSnap.Load()
	next := make(map[ompt.DeviceID]bool, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[e.Device] = e.Unified
	a.unifiedSnap.Store(&next)
	a.devices++
	if a.devices > 1 {
		a.multi.Store(true)
	}
}

// OnAlloc implements ompt.Tool: host allocations get shadow regions with
// every word in the `invalid` state ([Host:0, Accel:0], paper §IV-C).
func (a *Arbalest) OnAlloc(e ompt.AllocEvent) {
	if e.Free {
		a.shadowMem.Unregister(e.Addr)
		a.mu.Lock()
		delete(a.allocs, e.Addr)
		a.mu.Unlock()
		return
	}
	if _, err := a.shadowMem.Register(e.Addr, e.Bytes, e.Tag); err != nil {
		// Overlapping registration can only happen for implicit global
		// re-registration; keep the existing region.
		return
	}
	a.mu.Lock()
	a.allocs[e.Addr] = allocInfo{bytes: e.Bytes, tag: e.Tag, loc: e.Loc}
	a.mu.Unlock()
}

// OnDataOp implements ompt.Tool: mapping operations drive allocate/release/
// update transitions and maintain the CV interval tree.
func (a *Arbalest) OnDataOp(e ompt.DataOpEvent) {
	switch e.Kind {
	case ompt.OpAlloc:
		entry := &cvEntry{tag: e.Tag, ov: e.HostAddr, cv: e.DevAddr, bytes: e.Bytes, device: e.Device}
		if err := a.cvTree.Insert(uint64(e.DevAddr), uint64(e.DevAddr)+e.Bytes, entry); err == nil {
			a.publishCV()
			a.applyRange(e.HostAddr, e.Bytes, e.Device, vsm.Allocate)
		}
	case ompt.OpDelete:
		a.applyRange(e.HostAddr, e.Bytes, e.Device, vsm.Release)
		if a.cvTree.Delete(uint64(e.DevAddr)) {
			a.publishCV()
		}
	case ompt.OpTransferToDevice:
		a.applyRange(e.HostAddr, e.Bytes, e.Device, vsm.UpdateTarget)
	case ompt.OpTransferFromDevice:
		a.applyRange(e.HostAddr, e.Bytes, e.Device, vsm.UpdateHost)
	}
}

// OnTargetBegin implements ompt.Tool.
func (a *Arbalest) OnTargetBegin(ompt.TargetEvent) {}

// OnTargetEnd implements ompt.Tool.
func (a *Arbalest) OnTargetEnd(ompt.TargetEvent) {}

// OnSync implements ompt.Tool. Happens-before tracking lives in the race
// detector (internal/race), which ARBALEST is paired with by the harness,
// matching the paper's Archer-based implementation.
func (a *Arbalest) OnSync(ompt.SyncEvent) {}

// nextClock increments and returns the scalar clock of thread tid.
func (a *Arbalest) nextClock(tid ompt.ThreadID) uint64 {
	v, ok := a.clocks.Load(tid)
	if !ok {
		v, _ = a.clocks.LoadOrStore(tid, new(atomic.Uint64))
	}
	return v.(*atomic.Uint64).Add(1)
}

// clockFor returns the scalar clock to stamp into shadow metadata for e:
// the replay-assigned clock when present (deterministic across dispatch
// orders), else the live per-thread counter (online execution).
func (a *Arbalest) clockFor(e ompt.AccessEvent) uint64 {
	if e.Clock != 0 {
		return e.Clock
	}
	return a.nextClock(e.Thread)
}

// OnAccess implements ompt.Tool: the per-access analysis (paper §IV).
func (a *Arbalest) OnAccess(e ompt.AccessEvent) {
	a.accessCount.Add(1)

	hostSide := e.Device == ompt.HostDevice
	ovAddr := e.Addr
	devLoc := vsm.HostLoc

	if !hostSide {
		if (*a.unifiedSnap.Load())[e.Device] {
			// Unified memory: device accesses operate on the shared
			// storage directly; they behave as host-side operations for
			// the VSM, and mapping issues can only arise from data races
			// (paper §III-B), which the paired race detector covers.
			hostSide = true
		} else {
			entry, overflow := a.resolveDevice(e)
			if entry == nil {
				if overflow && !a.opts.DisableOverflow {
					a.reportOverflow(e)
				}
				return
			}
			if overflow {
				if !a.opts.DisableOverflow {
					a.reportOverflow(e)
				}
				return
			}
			ovAddr = entry.ov + (e.Addr - entry.cv)
			devLoc = vsm.DeviceLoc(int(e.Device))
		}
	}

	var op vsm.Op
	switch {
	case hostSide && e.Write:
		op = vsm.WriteHost
	case hostSide:
		op = vsm.ReadHost
	case e.Write:
		op = vsm.WriteTarget
	default:
		op = vsm.ReadTarget
	}

	issue, prior := a.apply(ovAddr, e.Size, e.Device, devLoc, op, e)
	if issue == vsm.NoIssue {
		return
	}
	repaired := false
	if issue == vsm.USD {
		repaired = a.repairStale(ovAddr, e, hostSide)
	}
	a.reportIssue(issue, ovAddr, prior, repaired, e)
}

// OnAccessBatch implements ompt.BatchTool: the columnar access fast path.
// Under exclusive sequential dispatch at word granularity with a single
// device it streams over the batch's arrays — tag-table transitions, blind
// metadata stores, a last-hit CV memo in front of resolveDevice, and a
// last-hit region memo in front of the shadow index — and falls back to
// the per-event path (identical semantics, just slower) otherwise.
func (a *Arbalest) OnAccessBatch(b *ompt.AccessBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if a.mode != ompt.DispatchSequential || a.multi.Load() || a.opts.Granularity != GranularityWord {
		for i := 0; i < n; i++ {
			a.OnAccess(b.At(i))
		}
		return
	}
	a.accessCount.Add(uint64(n))
	unified := *a.unifiedSnap.Load()
	// Hoist the column slices so the compiler proves one bounds check per
	// column for the whole batch instead of one per event.
	addrs, writes := b.Addrs[:n], b.Writes[:n]
	devices, bases := b.Devices[:n], b.Bases[:n]
	clocks, threads, sizes := b.Clocks[:n], b.Threads[:n], b.Sizes[:n]
	var (
		// Small memos with round-robin replacement: a kernel body cycles
		// through several mapped arrays per iteration (coordinate triples,
		// in/out pairs), so a one-entry memo would miss on nearly every
		// access while eight slots catch the whole working set.
		rMemo  [8]*shadow.Region
		cvMemo [8]*cvEntry
		rRR    int
		cvRR   int
		// Device runs: consecutive accesses share a device across whole
		// host or kernel phases, so the unified-set lookup happens once per
		// run instead of once per access.
		lastDev  = ompt.DeviceID(-1 << 30)
		lastHost bool
	)
	for i := 0; i < n; i++ {
		addr := addrs[i]
		write := writes[i]
		dev := devices[i]
		if dev != lastDev {
			lastDev, lastHost = dev, dev == ompt.HostDevice || unified[dev]
		}
		hostSide := lastHost
		ovAddr := addr
		if !hostSide {
			base := bases[i]
			// CV ranges never overlap, so containment in a memoized range
			// pins the same entry resolveDevice would return, and base
			// landing in the same range rules out the overflow case.
			var entry *cvEntry
			for _, m := range &cvMemo {
				if m != nil && addr >= m.cv && addr < m.cv+mem.Addr(m.bytes) &&
					(base == 0 || (base >= m.cv && base < m.cv+mem.Addr(m.bytes))) {
					entry = m
					break
				}
			}
			if entry != nil {
				a.stats.RecordMemoHit()
			} else {
				var overflow bool
				entry, overflow = a.resolveDeviceAddr(addr, base)
				if entry == nil || overflow {
					if overflow && !a.opts.DisableOverflow {
						a.reportOverflow(b.At(i))
					}
					continue
				}
				cvMemo[cvRR] = entry
				cvRR = (cvRR + 1) & 7
			}
			ovAddr = entry.ov + (addr - entry.cv)
		}
		var op vsm.Op
		switch {
		case hostSide && write:
			op = vsm.WriteHost
		case hostSide:
			op = vsm.ReadHost
		case write:
			op = vsm.WriteTarget
		default:
			op = vsm.ReadTarget
		}
		w := ovAddr.Align()
		var r *shadow.Region
		for _, m := range &rMemo {
			if m != nil && w >= m.Lo && w < m.Hi {
				r = m
				break
			}
		}
		if r != nil {
			a.stats.RecordMemoHit()
		} else if r = a.shadowMem.RegionOf(w); r == nil {
			continue
		} else {
			rMemo[rRR] = r
			rRR = (rRR + 1) & 7
		}
		wi := int((w - r.Lo) / mem.WordSize)
		oldTag := r.TagAt(wi)
		newTag, issue := vsm.TransitionTag(oldTag, op)
		clk := clocks[i]
		if clk == 0 {
			clk = a.nextClock(threads[i])
		}
		meta := shadow.MetaWord(uint32(threads[i]), clk, write, sizes[i], ovAddr.Offset())
		if issue == vsm.NoIssue {
			r.StoreSeq(wi, meta|shadow.Word(newTag))
			a.recordTagTransition(oldTag, newTag)
			continue
		}
		prior := r.LoadPlain(wi)
		r.StoreSeq(wi, meta|shadow.Word(newTag))
		a.recordTagTransition(oldTag, newTag)
		e := b.At(i)
		repaired := false
		if issue == vsm.USD {
			repaired = a.repairStale(ovAddr, e, hostSide)
		}
		a.reportIssue(issue, ovAddr, prior, repaired, e)
	}
}

// resolveDevice maps a device access to its CV entry. The second result is
// true when the access escaped its mapping: its address stabs no interval,
// or a different interval than the base pointer it was issued against
// (paper §IV-D). Resolution reads the immutable CV snapshot — no lock, no
// shared cache line — so concurrent runtime threads never serialize here.
func (a *Arbalest) resolveDevice(e ompt.AccessEvent) (*cvEntry, bool) {
	return a.resolveDeviceAddr(e.Addr, e.Base)
}

// resolveDeviceAddr is resolveDevice on the bare addresses — the batch
// fast path calls it without materializing a full event copy.
func (a *Arbalest) resolveDeviceAddr(addr, base mem.Addr) (*cvEntry, bool) {
	ix := a.cvSnap.Load()
	a.stats.RecordTreeLookup()
	entry := ix.stab(uint64(addr))
	if entry == nil {
		return nil, true
	}
	if base != 0 {
		a.stats.RecordTreeLookup()
		if ix.stab(uint64(base)) != entry {
			return entry, true
		}
	}
	return entry, false
}

// slotFor resolves the shadow region and word index tracking ovAddr, or
// (nil, -1) when the address is not covered by any registered allocation.
func (a *Arbalest) slotFor(ovAddr mem.Addr) (*shadow.Region, int) {
	if a.opts.Granularity == GranularityRegion {
		r := a.shadowMem.RegionOf(ovAddr)
		if r == nil {
			return nil, -1
		}
		return r, 0
	}
	return a.shadowMem.Lookup(ovAddr)
}

// byteSlot resolves (creating on demand) the per-byte shadow slot for
// ovAddr in byte-granularity mode. Addresses outside registered allocations
// return nil.
func (a *Arbalest) byteSlot(ovAddr mem.Addr) *atomic.Uint64 {
	if a.shadowMem.RegionOf(ovAddr) == nil {
		return nil
	}
	a.byteMu.Lock()
	defer a.byteMu.Unlock()
	s, ok := a.byteWords[ovAddr]
	if !ok {
		s = new(atomic.Uint64)
		a.byteWords[ovAddr] = s
	}
	return s
}

// wideSlot resolves (creating on demand) the packed-Tuple slot for ovAddr in
// multi-device mode.
func (a *Arbalest) wideSlot(ovAddr mem.Addr) *atomic.Uint64 {
	key := ovAddr.Align()
	if a.opts.Granularity == GranularityRegion {
		if r := a.shadowMem.RegionOf(ovAddr); r != nil {
			key = r.Lo
		}
	}
	a.wideMu.Lock()
	defer a.wideMu.Unlock()
	s, ok := a.wideWords[key]
	if !ok {
		s = new(atomic.Uint64)
		a.wideWords[key] = s
	}
	return s
}

// apply performs one VSM transition at ovAddr and returns the issue kind
// plus the shadow word the location held before the access (whose TID and
// scalar clock identify the last recorded access for the report).
func (a *Arbalest) apply(ovAddr mem.Addr, size uint64, dev ompt.DeviceID, devLoc int, op vsm.Op, e ompt.AccessEvent) (vsm.IssueKind, shadow.Word) {
	if a.multi.Load() {
		return a.applyWide(ovAddr, devLoc, op), 0
	}
	if a.opts.Granularity == GranularityByte {
		return a.applyBytes(ovAddr, size, op, e)
	}
	r, wi := a.slotFor(ovAddr)
	if r == nil {
		return vsm.NoIssue, 0
	}
	clk := a.clockFor(e)
	meta := shadow.MetaWord(uint32(e.Thread), clk, e.Write, size, ovAddr.Offset())
	switch a.mode {
	case ompt.DispatchSequential:
		// Tag-plane fast path: the transition runs off the 4 state/init
		// bits alone; the metadata plane is written blind (the access path
		// replaces every metadata field, so no read-modify-write is needed)
		// and the full word is only loaded when a report needs the prior
		// access's identity.
		oldTag := r.TagAt(wi)
		newTag, issue := vsm.TransitionTag(oldTag, op)
		var prior shadow.Word
		if issue != vsm.NoIssue {
			prior = r.LoadPlain(wi)
		}
		r.StoreSeq(wi, meta|shadow.Word(newTag))
		a.recordTagTransition(oldTag, newTag)
		return issue, prior
	default:
		slot := r.Slot(wi)
		for {
			old := shadow.Word(atomic.LoadUint64(slot))
			nw, issue := vsm.Transition(old, op)
			nw = meta | shadow.Word(nw.Tag())
			if atomic.CompareAndSwapUint64(slot, uint64(old), uint64(nw)) {
				vsm.RecordTransition(a.stats, old, nw)
				return issue, old
			}
			a.stats.RecordCASRetry()
		}
	}
}

// recordTagTransition is vsm.RecordTransition for the tag fast path: the
// VSM state is the low two bits of the tag.
func (a *Arbalest) recordTagTransition(from, to uint8) {
	a.stats.RecordTransition(uint8(shadow.TagState(from)), uint8(shadow.TagState(to)))
}

// applyBytes is the byte-granularity path: every byte of the access gets
// its own VSM transition; the access reports the worst issue among them.
func (a *Arbalest) applyBytes(ovAddr mem.Addr, size uint64, op vsm.Op, e ompt.AccessEvent) (vsm.IssueKind, shadow.Word) {
	if size == 0 {
		size = 1
	}
	clk := a.clockFor(e)
	worst := vsm.NoIssue
	var prior shadow.Word
	for b := uint64(0); b < size; b++ {
		slot := a.byteSlot(ovAddr + mem.Addr(b))
		if slot == nil {
			continue
		}
		for {
			old := shadow.Word(slot.Load())
			nw, issue := vsm.Transition(old, op)
			nw = nw.WithTID(uint32(e.Thread)).WithClock(clk).
				WithIsWrite(e.Write).WithAccessSize(1).WithOffset((ovAddr + mem.Addr(b)).Offset())
			if slot.CompareAndSwap(uint64(old), uint64(nw)) {
				vsm.RecordTransition(a.stats, old, nw)
				if issue != vsm.NoIssue && worst == vsm.NoIssue {
					worst, prior = issue, old
				}
				break
			}
			a.stats.RecordCASRetry()
		}
	}
	return worst, prior
}

// applyWide is the multi-device path over packed (n+1)-tuples.
func (a *Arbalest) applyWide(ovAddr mem.Addr, devLoc int, op vsm.Op) vsm.IssueKind {
	if a.shadowMem.RegionOf(ovAddr) == nil {
		return vsm.NoIssue
	}
	slot := a.wideSlot(ovAddr)
	for {
		old := slot.Load()
		t := vsm.UnpackTuple(old)
		var issue vsm.IssueKind
		switch op {
		case vsm.ReadHost:
			issue = t.Read(vsm.HostLoc)
		case vsm.ReadTarget:
			issue = t.Read(devLoc)
		case vsm.WriteHost:
			t = t.Write(vsm.HostLoc)
		case vsm.WriteTarget:
			t = t.Write(devLoc)
		case vsm.UpdateHost:
			t = t.Update(vsm.HostLoc, devLoc)
		case vsm.UpdateTarget:
			t = t.Update(devLoc, vsm.HostLoc)
		case vsm.Allocate:
			t = t.Allocate(devLoc)
		case vsm.Release:
			t = t.Release(devLoc)
		}
		if slot.CompareAndSwap(old, t.Pack()) {
			return issue
		}
		a.stats.RecordCASRetry()
	}
}

// applyRange applies op to every shadow word covering [hostAddr,
// hostAddr+bytes), used by mapping operations.
func (a *Arbalest) applyRange(hostAddr mem.Addr, bytes uint64, dev ompt.DeviceID, op vsm.Op) {
	if hostAddr == 0 || bytes == 0 {
		return
	}
	devLoc := vsm.HostLoc
	if dev != ompt.HostDevice {
		devLoc = vsm.DeviceLoc(int(dev))
	}
	if a.opts.Granularity == GranularityRegion {
		a.applyOne(hostAddr, devLoc, op)
		return
	}
	if a.opts.Granularity == GranularityByte && !a.multi.Load() {
		end := hostAddr + mem.Addr(bytes)
		for addr := hostAddr; addr < end; addr++ {
			slot := a.byteSlot(addr)
			if slot == nil {
				continue
			}
			for {
				old := shadow.Word(slot.Load())
				nw, _ := vsm.Transition(old, op)
				if slot.CompareAndSwap(uint64(old), uint64(nw)) {
					vsm.RecordTransition(a.stats, old, nw)
					break
				}
				a.stats.RecordCASRetry()
			}
		}
		return
	}
	end := hostAddr + mem.Addr(bytes)
	for addr := hostAddr.Align(); addr < end; addr += mem.WordSize {
		a.applyOne(addr, devLoc, op)
	}
}

func (a *Arbalest) applyOne(ovAddr mem.Addr, devLoc int, op vsm.Op) {
	if a.multi.Load() {
		a.applyWide(ovAddr, devLoc, op)
		return
	}
	r, wi := a.slotFor(ovAddr)
	if r == nil {
		return
	}
	switch a.mode {
	case ompt.DispatchSequential:
		// Mapping ops keep the prior access metadata (only the low nibble
		// changes), so load-modify-store — and mirror the tag plane.
		old := r.LoadPlain(wi)
		nw, _ := vsm.Transition(old, op)
		r.StoreSeq(wi, nw)
		vsm.RecordTransition(a.stats, old, nw)
	default:
		slot := r.Slot(wi)
		for {
			old := shadow.Word(atomic.LoadUint64(slot))
			nw, _ := vsm.Transition(old, op)
			if atomic.CompareAndSwapUint64(slot, uint64(old), uint64(nw)) {
				vsm.RecordTransition(a.stats, old, nw)
				return
			}
			a.stats.RecordCASRetry()
		}
	}
}

func (a *Arbalest) allocSite(ovAddr mem.Addr) (ompt.SourceLoc, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for base, info := range a.allocs {
		if ovAddr >= base && ovAddr < base+mem.Addr(info.bytes) {
			return info.loc, info.bytes
		}
	}
	return ompt.SourceLoc{}, 0
}

func (a *Arbalest) reportIssue(issue vsm.IssueKind, ovAddr mem.Addr, prior shadow.Word, repaired bool, e ompt.AccessEvent) {
	kind := report.USD
	if issue == vsm.UUM {
		kind = report.UUM
	}
	loc, bytes := a.allocSite(ovAddr)
	side := "host"
	if e.Device != ompt.HostDevice {
		side = fmt.Sprintf("device %d", e.Device)
	}
	detail := fmt.Sprintf("The read on the %s cannot observe the last write: OV and CV are inconsistent (%s).", side, issue)
	if prior != 0 {
		// The shadow word's metadata fields (Table II) identify the last
		// recorded access to this word.
		rw := "read"
		if prior.IsWrite() {
			rw = "write"
		}
		detail += fmt.Sprintf(" Last recorded access: %s of %d bytes by thread T%d at clock %d (state %s).",
			rw, prior.AccessSize(), prior.TID(), prior.Clock(), prior.State())
	}
	if repaired {
		detail += " The runtime repaired this access by issuing the missing transfer (§III-C)."
	}
	a.sink.AddAt(e.Clock, &report.Report{
		Tool:       a.Name(),
		Kind:       kind,
		Var:        e.Tag,
		Addr:       e.Addr,
		Size:       e.Size,
		Write:      e.Write,
		Device:     e.Device,
		Thread:     e.Thread,
		Loc:        e.Loc,
		Detail:     detail,
		AllocLoc:   loc,
		AllocBytes: bytes,
	})
}

func (a *Arbalest) reportOverflow(e ompt.AccessEvent) {
	a.sink.AddAt(e.Clock, &report.Report{
		Tool:   a.Name(),
		Kind:   report.BufferOverflow,
		Var:    e.Tag,
		Addr:   e.Addr,
		Size:   e.Size,
		Write:  e.Write,
		Device: e.Device,
		Thread: e.Thread,
		Loc:    e.Loc,
		Detail: fmt.Sprintf("Device access at %#x escapes the corresponding variable mapped at base %#x.", uint64(e.Addr), uint64(e.Base)),
	})
}

var _ ompt.Tool = (*Arbalest)(nil)
