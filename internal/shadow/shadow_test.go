package shadow

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestWordBitFieldsIndependent(t *testing.T) {
	w := Word(0).
		WithOVValid(true).
		WithCVInit(true).
		WithTID(0xABC).
		WithClock(1<<41 + 7).
		WithIsWrite(true).
		WithAccessSize(4).
		WithOffset(5)
	if !w.OVValid() || w.CVValid() || w.OVInit() || !w.CVInit() {
		t.Errorf("valid/init bits wrong: %v", w)
	}
	if w.TID() != 0xABC {
		t.Errorf("TID = %#x", w.TID())
	}
	if w.Clock() != 1<<41+7 {
		t.Errorf("Clock = %d", w.Clock())
	}
	if !w.IsWrite() {
		t.Error("IsWrite lost")
	}
	if w.AccessSize() != 4 {
		t.Errorf("AccessSize = %d", w.AccessSize())
	}
	if w.Offset() != 5 {
		t.Errorf("Offset = %d", w.Offset())
	}
}

func TestWordFieldMasking(t *testing.T) {
	// Overflowing values must not leak into neighbouring fields.
	w := Word(0).WithTID(MaxTID + 5)
	if w.Clock() != 0 || w.OVValid() || w.CVValid() {
		t.Errorf("TID overflow leaked: %v", w)
	}
	w = Word(0).WithClock(MaxClock + 9)
	if w.IsWrite() || w.TID() != 0 {
		t.Errorf("clock overflow leaked: %v", w)
	}
	w = Word(0).WithOffset(15)
	if w.Offset() != 7 {
		t.Errorf("offset not masked: %d", w.Offset())
	}
}

func TestStateEncoding(t *testing.T) {
	cases := []struct {
		ov, cv bool
		want   State
	}{
		{false, false, Invalid},
		{true, false, HostOnly},
		{false, true, TargetOnly},
		{true, true, Consistent},
	}
	for _, c := range cases {
		w := Word(0).WithOVValid(c.ov).WithCVValid(c.cv)
		if w.State() != c.want {
			t.Errorf("ov=%t cv=%t => %v, want %v", c.ov, c.cv, w.State(), c.want)
		}
		// Round trip through WithState.
		w2 := Word(0).WithTID(3).WithState(c.want)
		if w2.State() != c.want || w2.TID() != 3 {
			t.Errorf("WithState(%v) round trip failed: %v", c.want, w2)
		}
	}
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{Invalid: "invalid", HostOnly: "host", TargetOnly: "target", Consistent: "consistent"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestWordPropertyRoundTrip(t *testing.T) {
	f := func(ov, cv, ovi, cvi, wr bool, tid uint32, clk uint64, szSel uint8, off uint8) bool {
		tid &= MaxTID
		clk &= MaxClock
		size := uint64(1) << (szSel % 4)
		o := uint64(off % 8)
		w := Word(0).
			WithOVValid(ov).WithCVValid(cv).WithOVInit(ovi).WithCVInit(cvi).
			WithIsWrite(wr).WithTID(tid).WithClock(clk).WithAccessSize(size).WithOffset(o)
		return w.OVValid() == ov && w.CVValid() == cv &&
			w.OVInit() == ovi && w.CVInit() == cvi &&
			w.IsWrite() == wr && w.TID() == tid && w.Clock() == clk &&
			w.AccessSize() == size && w.Offset() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryRegister(t *testing.T) {
	m := NewMemory()
	base := mem.HostBase + 16
	r, err := m.Register(base, 100, "arr")
	if err != nil {
		t.Fatal(err)
	}
	// 100 bytes from an aligned base covers 13 words.
	if r.NumWords() != 13 {
		t.Errorf("NumWords = %d, want 13", r.NumWords())
	}
	if m.NumRegions() != 1 {
		t.Errorf("NumRegions = %d", m.NumRegions())
	}
	if got := m.WordAt(base + 50); got == nil {
		t.Error("WordAt inside region returned nil")
	}
	if got := m.WordAt(base + 200); got != nil {
		t.Error("WordAt outside region returned non-nil")
	}
}

func TestMemoryRegisterUnaligned(t *testing.T) {
	m := NewMemory()
	base := mem.HostBase + 13 // unaligned
	r, err := m.Register(base, 10, "odd")
	if err != nil {
		t.Fatal(err)
	}
	if r.Lo != (mem.HostBase + 8) {
		t.Errorf("Lo = %#x", uint64(r.Lo))
	}
	if m.WordAt(base) == nil || m.WordAt(base+9) == nil {
		t.Error("widened region does not cover requested bytes")
	}
}

func TestMemoryUnregister(t *testing.T) {
	m := NewMemory()
	base := mem.HostBase
	if _, err := m.Register(base, 64, "a"); err != nil {
		t.Fatal(err)
	}
	before := m.Bytes()
	if before == 0 {
		t.Fatal("no shadow bytes accounted")
	}
	if !m.Unregister(base) {
		t.Fatal("Unregister returned false")
	}
	if m.Bytes() != 0 {
		t.Errorf("bytes after unregister = %d", m.Bytes())
	}
	if m.PeakBytes() != before {
		t.Errorf("peak lost: %d, want %d", m.PeakBytes(), before)
	}
	if m.WordAt(base) != nil {
		t.Error("WordAt alive after unregister")
	}
	if m.Unregister(base) {
		t.Error("double unregister succeeded")
	}
}

func TestWordAtDistinctSlots(t *testing.T) {
	m := NewMemory()
	base := mem.HostBase
	if _, err := m.Register(base, 64, "a"); err != nil {
		t.Fatal(err)
	}
	s0 := m.WordAt(base)
	s1 := m.WordAt(base + 8)
	sameWord := m.WordAt(base + 3)
	if s0 == s1 {
		t.Error("adjacent words share a slot")
	}
	if s0 != sameWord {
		t.Error("bytes within one word map to different slots")
	}
}

func TestEachWord(t *testing.T) {
	m := NewMemory()
	r, err := m.Register(mem.HostBase, 32, "a")
	if err != nil {
		t.Fatal(err)
	}
	marked := Word(0).WithOVInit(true)
	*r.WordAt(mem.HostBase + 8) = uint64(marked)
	var addrs []mem.Addr
	var seen []Word
	r.EachWord(func(a mem.Addr, w Word) {
		addrs = append(addrs, a)
		seen = append(seen, w)
	})
	if len(addrs) != 4 {
		t.Fatalf("visited %d words, want 4", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i] != addrs[i-1]+8 {
			t.Errorf("non-contiguous walk: %v", addrs)
		}
	}
	if seen[1] != marked {
		t.Errorf("EachWord did not read region storage: word 1 = %v, want %v", seen[1], marked)
	}
	if !Word(*r.WordAt(mem.HostBase + 8)).OVInit() {
		t.Error("WordAt pointer did not alias region storage")
	}
}

// TestBytesPeakAccounting checks the Fig. 9 metric parity the arena must
// preserve: Bytes counts logical shadow words only (8 bytes per application
// word — no tag-plane overhead, no arena slack), and PeakBytes is the
// high-water mark across register/unregister churn.
func TestBytesPeakAccounting(t *testing.T) {
	m := NewMemoryArena(mem.NewSlabArena())
	r1, err := m.Register(mem.HostBase, 800, "a") // 100 words
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Bytes(), uint64(r1.NumWords())*8; got != want {
		t.Fatalf("Bytes after first register = %d, want %d", got, want)
	}
	r2, err := m.Register(mem.HostBase+4096, 1600, "b") // 200 words
	if err != nil {
		t.Fatal(err)
	}
	both := uint64(r1.NumWords()+r2.NumWords()) * 8
	if got := m.Bytes(); got != both {
		t.Fatalf("Bytes with both regions = %d, want %d", got, both)
	}
	if got := m.PeakBytes(); got != both {
		t.Fatalf("PeakBytes = %d, want %d", got, both)
	}
	if !m.Unregister(mem.HostBase) {
		t.Fatal("Unregister failed")
	}
	if got, want := m.Bytes(), uint64(r2.NumWords())*8; got != want {
		t.Errorf("Bytes after unregister = %d, want %d", got, want)
	}
	if got := m.PeakBytes(); got != both {
		t.Errorf("PeakBytes dropped to %d after unregister, want %d", got, both)
	}
	m.Release()
	if got := m.Bytes(); got != 0 {
		t.Errorf("Bytes after Release = %d", got)
	}
}

// TestSnapshotRestoreTagPlane round-trips a memory through
// Snapshot/Restore and checks the rebuilt tag plane agrees with the words
// plane — the wire format carries only words, so Restore must recompute
// every nibble.
func TestSnapshotRestoreTagPlane(t *testing.T) {
	src := NewMemoryArena(mem.NewSlabArena())
	r, err := src.Register(mem.HostBase, 512, "v") // 64 words
	if err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < r.NumWords(); wi++ {
		w := Word(0).WithState(State(wi % 4)).WithTID(uint32(wi)).WithClock(uint64(wi) * 3)
		r.Store(wi, w)
	}
	st := src.Snapshot()

	dst := NewMemoryArena(mem.NewSlabArena())
	if err := dst.Restore(st); err != nil {
		t.Fatal(err)
	}
	dr := dst.RegionOf(mem.HostBase)
	if dr == nil {
		t.Fatal("restored memory has no region at HostBase")
	}
	for wi := 0; wi < dr.NumWords(); wi++ {
		want := r.Load(wi)
		if got := dr.Load(wi); got != want {
			t.Fatalf("word %d = %#x, want %#x", wi, uint64(got), uint64(want))
		}
		if got, want := dr.TagAt(wi), uint8(want&0xF); got != want {
			t.Fatalf("tag plane word %d = %#x, want %#x (must match words plane)", wi, got, want)
		}
	}
	if got, want := dst.Bytes(), src.Bytes(); got != want {
		t.Errorf("restored Bytes = %d, want %d", got, want)
	}
	addr := mem.HostBase + 8*5
	s1, ok1 := src.Probe(addr)
	s2, ok2 := dst.Probe(addr)
	if !ok1 || !ok2 || s1 != s2 {
		t.Errorf("Probe disagrees after restore: (%v,%v) vs (%v,%v)", s1, ok1, s2, ok2)
	}
}

// TestProbeTagPlaneMatchesWords drives random words through Store and
// checks the state-only Probe fast path agrees with the metadata plane.
func TestProbeTagPlaneMatchesWords(t *testing.T) {
	m := NewMemoryArena(mem.NewSlabArena())
	r, err := m.Register(mem.HostBase, 256, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(raw uint64, slot uint8) bool {
		wi := int(slot) % r.NumWords()
		r.Store(wi, Word(raw))
		got, ok := m.Probe(mem.HostBase + mem.Addr(wi*8))
		return ok && got == Word(raw).State()
	}, nil); err != nil {
		t.Error(err)
	}
}
