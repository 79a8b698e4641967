// Package stat holds the order statistics the benchmark reports and the
// compare tool judges by.
package stat

import (
	"math"
	"slices"
)

// Median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN when xs is empty. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) ("exclusive"), so a
// spread read from the benchmark's output matches the one compare reports.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN when xs is empty.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailCandidates are the percentiles a tail latency may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile picks the highest percentile that has at least ten of n
// samples beyond it: a percentile with fewer describes a few outliers, not
// a tail. ok is false when even the median has fewer than ten beyond.
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		// Exact arithmetic in tenths of a percent: 999 samples must not
		// round up to ten beyond the 99th percentile.
		if n*int(math.Round((100-p)*10)) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// Geomean returns the geometric mean of the positive values in xs, or NaN
// when there are none.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
