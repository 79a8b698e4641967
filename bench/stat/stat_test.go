package stat

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython checks the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 9.25, 2, 7.5, 3, 8}, 2, 5, 8},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 99: 10, 10: 1} {
		if got := Percentile(xs, p); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) || !math.IsNaN(Median(nil)) {
		t.Error("empty input must give NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 95, true},
		{200, 95, true}, {199, 90, true}, {100, 90, true}, {99, 75, true},
		{40, 75, true}, {20, 50, true}, {19, 0, false}, {0, 0, false},
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestGeomeanSkipsNonPositive(t *testing.T) {
	if got := Geomean([]float64{2, 8, 0, math.NaN()}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean = %v, want 4", got)
	}
}
