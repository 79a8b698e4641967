package main

import "testing"

func doc(ns map[string]float64) *Doc {
	d := &Doc{}
	for name, v := range ns {
		d.Benchmarks = append(d.Benchmarks, Entry{
			Name: name, Procs: 1, Count: 3, Metrics: map[string]float64{"ns/op": v},
		})
	}
	return d
}

func TestCompareFailsOnInjectedRegression(t *testing.T) {
	base := doc(map[string]float64{
		"BenchmarkFig8/552.pep/arbalest-replay": 100000,
		"BenchmarkFig8/554.pcg/arbalest-replay": 2000000,
	})
	// pep injected 6% slower: past the 5% gate. pcg 1% slower: within it.
	fresh := doc(map[string]float64{
		"BenchmarkFig8/552.pep/arbalest-replay": 106000,
		"BenchmarkFig8/554.pcg/arbalest-replay": 2020000,
	})
	regs, notes, _ := Compare(base, fresh, 0.05)
	if len(notes) != 0 {
		t.Errorf("unexpected notes: %v", notes)
	}
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want exactly the injected one: %v", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkFig8/552.pep/arbalest-replay" {
		t.Errorf("flagged %q", regs[0].Name)
	}
	if r := regs[0].Ratio(); r < 1.059 || r > 1.061 {
		t.Errorf("ratio = %v, want 1.06", r)
	}
}

func TestComparePassesOnIdenticalAndImproved(t *testing.T) {
	base := doc(map[string]float64{"a": 1000, "b": 500})
	fresh := doc(map[string]float64{"a": 1000, "b": 100}) // b improved 5x
	if regs, _, _ := Compare(base, fresh, 0.05); len(regs) != 0 {
		t.Errorf("identical/improved runs flagged: %v", regs)
	}
}

func TestCompareBoundaryExactlyAtThreshold(t *testing.T) {
	base := doc(map[string]float64{"a": 100000})
	fresh := doc(map[string]float64{"a": 105000}) // exactly 5%: not past it
	if regs, _, _ := Compare(base, fresh, 0.05); len(regs) != 0 {
		t.Errorf("exact-threshold run flagged: %v", regs)
	}
}

func TestCompareNotesUnmatchedEntries(t *testing.T) {
	base := doc(map[string]float64{"retired": 100})
	fresh := doc(map[string]float64{"brandnew": 100})
	regs, notes, _ := Compare(base, fresh, 0.05)
	if len(regs) != 0 {
		t.Errorf("unmatched entries must not fail the gate: %v", regs)
	}
	if len(notes) != 2 {
		t.Errorf("notes = %v, want one per unmatched side", notes)
	}
}

func TestCompareMissingNsPerOp(t *testing.T) {
	base := doc(map[string]float64{"a": 1000})
	fresh := &Doc{Benchmarks: []Entry{{Name: "a", Procs: 1, Metrics: map[string]float64{}}}}
	regs, notes, _ := Compare(base, fresh, 0.05)
	if len(regs) != 0 || len(notes) != 1 {
		t.Errorf("regs=%v notes=%v, want a note and no failure", regs, notes)
	}
}

func TestProcsDistinguishEntries(t *testing.T) {
	base := &Doc{Benchmarks: []Entry{
		{Name: "a", Procs: 1, Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "a", Procs: 4, Metrics: map[string]float64{"ns/op": 400}},
	}}
	fresh := &Doc{Benchmarks: []Entry{
		{Name: "a", Procs: 1, Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "a", Procs: 4, Metrics: map[string]float64{"ns/op": 900}}, // -4 arm regressed
	}}
	regs, _, _ := Compare(base, fresh, 0.05)
	if len(regs) != 1 || regs[0].Fresh != 900 {
		t.Errorf("regs = %v, want only the procs=4 arm", regs)
	}
}

// TestCompareNothingShared: a baseline taken at another GOMAXPROCS shares
// no entry with the fresh run, and Compare says so instead of passing
// vacuously.
func TestCompareNothingShared(t *testing.T) {
	base := doc(map[string]float64{"BenchmarkFig8/554.pcg/arbalest-replay": 2000000})
	fresh := doc(map[string]float64{"BenchmarkFig8/554.pcg/arbalest-replay": 9000000})
	fresh.Benchmarks[0].Procs = 2
	regs, notes, shared := Compare(base, fresh, 0.05)
	if shared != 0 || len(regs) != 0 {
		t.Errorf("shared = %d, regressions %v; want nothing compared", shared, regs)
	}
	if len(notes) != 2 {
		t.Errorf("notes = %v, want one per unmatched side", notes)
	}
	if _, _, shared := Compare(base, base, 0.05); shared != 1 {
		t.Errorf("identical documents share %d benchmarks, want 1", shared)
	}
}
