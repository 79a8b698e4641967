// Package interval indexes disjoint half-open address ranges.
//
// ARBALEST relates a corresponding variable's (CV) device address range back
// to the original variable's (OV) host range, and detects data-mapping-related
// buffer overflows, by stabbing the live ranges: an access whose address
// stabs no range — or a different range than the mapping it was issued
// against — escapes its CV (paper §IV-D). The paper keeps the ranges in an
// interval tree. Every range indexed here is disjoint from the others (mapped
// variables never alias, and Insert rejects an overlap), so the ranges sorted
// by their low end answer a stab with one binary search in O(log m) for m
// ranges, and a last-hit memo amortizes repeated stabs into the same range
// to O(1) (paper §IV-C).
//
// An Index has one owner: analyzers receive one event at a time (the
// ompt.Tool contract), so it takes no locks.
package interval

import (
	"fmt"
	"slices"
)

// Interval is a half-open range [Lo, Hi).
type Interval struct {
	Lo, Hi uint64
}

// Contains reports whether p lies in the interval.
func (iv Interval) Contains(p uint64) bool { return p >= iv.Lo && p < iv.Hi }

// Overlaps reports whether iv and other share at least one point.
func (iv Interval) Overlaps(other Interval) bool { return iv.Lo < other.Hi && other.Lo < iv.Hi }

// Len returns the length of the interval.
func (iv Interval) Len() uint64 { return iv.Hi - iv.Lo }

func (iv Interval) String() string { return fmt.Sprintf("[%#x,%#x)", iv.Lo, iv.Hi) }

// Index maps disjoint half-open ranges to values of type V. The zero value
// is an empty index.
type Index[V any] struct {
	ivs  []Interval // sorted by Lo, pairwise disjoint
	vals []V        // vals[i] belongs to ivs[i]
	// last is the position of the last range Stab returned. It is only a
	// hint: Stab checks containment before trusting it, so no mutation
	// needs to reset it.
	last int
}

// New returns an empty index.
func New[V any]() *Index[V] { return &Index[V]{} }

// Len returns the number of ranges in the index.
func (x *Index[V]) Len() int { return len(x.ivs) }

// search returns the number of ranges whose low end is at most p. The
// binary search is open-coded: sort.Search costs an indirect call per probe,
// which is most of a lookup over the handful of ranges a workload keeps live.
func (x *Index[V]) search(p uint64) int {
	lo, hi := 0, len(x.ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.ivs[mid].Lo <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds [lo, hi) with value val. It returns an error if the new range
// is empty or overlaps an existing one: mapped variables never alias in the
// runtime, so an overlap indicates a bookkeeping bug in the caller.
func (x *Index[V]) Insert(lo, hi uint64, val V) error {
	if lo >= hi {
		return fmt.Errorf("interval: empty interval [%#x,%#x)", lo, hi)
	}
	iv := Interval{Lo: lo, Hi: hi}
	// Ranges are disjoint, so only the neighbours on either side of the
	// insertion point can overlap the new one.
	i := x.search(lo)
	if i > 0 && x.ivs[i-1].Overlaps(iv) {
		return fmt.Errorf("interval: %v overlaps existing %v", iv, x.ivs[i-1])
	}
	if i < len(x.ivs) && x.ivs[i].Overlaps(iv) {
		return fmt.Errorf("interval: %v overlaps existing %v", iv, x.ivs[i])
	}
	x.ivs = slices.Insert(x.ivs, i, iv)
	x.vals = slices.Insert(x.vals, i, val)
	return nil
}

// Delete removes the range whose low end is lo. It reports whether a range
// was removed.
func (x *Index[V]) Delete(lo uint64) bool {
	i := x.search(lo) - 1
	if i < 0 || x.ivs[i].Lo != lo {
		return false
	}
	x.ivs = slices.Delete(x.ivs, i, i+1)
	x.vals = slices.Delete(x.vals, i, i+1)
	return true
}

// Stab returns the range containing p and its value. The third result
// reports whether such a range exists. The last-hit memo makes repeated
// stabs into the same range O(1).
func (x *Index[V]) Stab(p uint64) (Interval, V, bool) {
	if i := x.last; i < len(x.ivs) && x.ivs[i].Contains(p) {
		return x.ivs[i], x.vals[i], true
	}
	i := x.search(p) - 1
	if i < 0 || p >= x.ivs[i].Hi {
		var zero V
		return Interval{}, zero, false
	}
	x.last = i
	return x.ivs[i], x.vals[i], true
}

// StabNoCache is Stab without the memo; the ablation benchmark uses it to
// quantify the memo's effect.
func (x *Index[V]) StabNoCache(p uint64) (Interval, V, bool) {
	i := x.search(p) - 1
	if i < 0 || p >= x.ivs[i].Hi {
		var zero V
		return Interval{}, zero, false
	}
	return x.ivs[i], x.vals[i], true
}

// Each calls fn for every range in ascending order of low end.
func (x *Index[V]) Each(fn func(iv Interval, val V)) {
	for i, iv := range x.ivs {
		fn(iv, x.vals[i])
	}
}

// checkInvariants validates that the ranges are non-empty, sorted by low end
// and pairwise disjoint; exported for tests via export_test.go.
func (x *Index[V]) checkInvariants() error {
	if len(x.ivs) != len(x.vals) {
		return fmt.Errorf("%d ranges but %d values", len(x.ivs), len(x.vals))
	}
	for i, iv := range x.ivs {
		if iv.Lo >= iv.Hi {
			return fmt.Errorf("empty range %v at %d", iv, i)
		}
		if i > 0 && x.ivs[i-1].Hi > iv.Lo {
			return fmt.Errorf("range %v at %d is unsorted or overlaps %v", iv, i, x.ivs[i-1])
		}
	}
	return nil
}
