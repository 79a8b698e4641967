package interval

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertStab(t *testing.T) {
	tr := New[string]()
	if err := tr.Insert(10, 20, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(30, 40, "b"); err != nil {
		t.Fatal(err)
	}
	iv, v, ok := tr.Stab(15)
	if !ok || v != "a" || iv.Lo != 10 || iv.Hi != 20 {
		t.Errorf("Stab(15) = %v %q %t", iv, v, ok)
	}
	if _, _, ok := tr.Stab(25); ok {
		t.Error("Stab(25) should miss")
	}
	if _, _, ok := tr.Stab(20); ok {
		t.Error("Stab(20) should miss (half-open)")
	}
	_, v, ok = tr.Stab(30)
	if !ok || v != "b" {
		t.Errorf("Stab(30) = %q %t", v, ok)
	}
}

func TestInsertRejectsOverlapAndEmpty(t *testing.T) {
	tr := New[int]()
	if err := tr.Insert(10, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(15, 25, 2); err == nil {
		t.Error("overlapping insert accepted")
	}
	if err := tr.Insert(5, 11, 3); err == nil {
		t.Error("overlapping insert accepted (left)")
	}
	if err := tr.Insert(7, 7, 4); err == nil {
		t.Error("empty interval accepted")
	}
	// Touching intervals are fine (half-open).
	if err := tr.Insert(20, 30, 5); err != nil {
		t.Errorf("touching interval rejected: %v", err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		lo := uint64(i * 100)
		if err := tr.Insert(lo, lo+50, i); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.Delete(300) {
		t.Fatal("Delete(300) returned false")
	}
	if tr.Delete(300) {
		t.Error("second Delete(300) returned true")
	}
	if _, _, ok := tr.Stab(320); ok {
		t.Error("deleted interval still stabs")
	}
	if tr.Len() != 9 {
		t.Errorf("Len = %d, want 9", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("invariants after delete: %v", err)
	}
}

func TestStabCacheInvalidatedByDelete(t *testing.T) {
	tr := New[int]()
	if err := tr.Insert(0, 100, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tr.Stab(50); !ok {
		t.Fatal("stab miss")
	}
	tr.Delete(0)
	if _, _, ok := tr.Stab(50); ok {
		t.Error("stale cache served a deleted interval")
	}
}

func TestEachInOrder(t *testing.T) {
	tr := New[int]()
	los := []uint64{50, 10, 30, 70, 20}
	for i, lo := range los {
		if err := tr.Insert(lo, lo+5, i); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	tr.Each(func(iv Interval, _ int) { seen = append(seen, iv.Lo) })
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Errorf("Each not in order: %v", seen)
	}
	if len(seen) != len(los) {
		t.Errorf("Each visited %d, want %d", len(seen), len(los))
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 20}
	if !iv.Contains(10) || iv.Contains(20) || iv.Contains(9) {
		t.Error("Contains wrong at boundaries")
	}
	if iv.Len() != 10 {
		t.Errorf("Len = %d", iv.Len())
	}
	if !iv.Overlaps(Interval{Lo: 19, Hi: 30}) {
		t.Error("Overlaps false negative")
	}
	if iv.Overlaps(Interval{Lo: 20, Hi: 30}) {
		t.Error("Overlaps false positive on touching")
	}
}

// TestRandomizedAgainstBruteForce cross-checks stab queries against a linear
// scan over many random insert/delete sequences, validating throughout that
// the ranges stay sorted by low end and pairwise disjoint.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[uint64]()
		live := map[uint64]Interval{} // keyed by Lo
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				lo := uint64(rng.Intn(1000)) * 10
				hi := lo + uint64(rng.Intn(9)+1)
				overlaps := false
				for _, iv := range live {
					if iv.Overlaps(Interval{Lo: lo, Hi: hi}) {
						overlaps = true
						break
					}
				}
				err := tr.Insert(lo, hi, lo)
				if overlaps && err == nil {
					t.Logf("seed %d: overlap accepted [%d,%d)", seed, lo, hi)
					return false
				}
				if !overlaps {
					if err != nil {
						t.Logf("seed %d: valid insert rejected: %v", seed, err)
						return false
					}
					live[lo] = Interval{Lo: lo, Hi: hi}
				}
			case 2: // delete
				for lo := range live {
					if !tr.Delete(lo) {
						t.Logf("seed %d: delete of live %d failed", seed, lo)
						return false
					}
					delete(live, lo)
					break
				}
			case 3: // stab, then stab the next point (usually a memo hit)
				p0 := uint64(rng.Intn(10010))
				for _, p := range []uint64{p0, p0 + 1} {
					_, got, ok := tr.Stab(p)
					var want uint64
					found := false
					for lo, iv := range live {
						if iv.Contains(p) {
							want, found = lo, true
							break
						}
					}
					if ok != found || (ok && got != want) {
						t.Logf("seed %d: stab(%d) = %v,%t want %v,%t", seed, p, got, ok, want, found)
						return false
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			intact := true
			tr.Each(func(iv Interval, v uint64) {
				intact = intact && live[iv.Lo] == iv && v == iv.Lo
			})
			if !intact {
				t.Logf("seed %d step %d: contents diverge from the oracle", seed, step)
				return false
			}
		}
		return tr.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStabNoCacheMatchesStab(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 50; i++ {
		lo := uint64(i * 20)
		if err := tr.Insert(lo, lo+10, i); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 1000; p += 3 {
		_, a, okA := tr.Stab(p)
		_, b, okB := tr.StabNoCache(p)
		if okA != okB || a != b {
			t.Fatalf("Stab/StabNoCache diverge at %d: %v,%t vs %v,%t", p, a, okA, b, okB)
		}
	}
}
