package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig8/503.postencil/native         	      20	    181771 ns/op
BenchmarkFig8/503.postencil/arbalest-replay-4         	      20	   6160520 ns/op
BenchmarkFig9/504.polbm/arbalest          	       1	  29163800 ns/op	   2097152 peak-bytes
BenchmarkShadowCAS-8   	85503376	        14.02 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	0.512s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Benchmarks); got != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", got)
	}

	first := doc.Benchmarks[0]
	if first.Name != "BenchmarkFig8/503.postencil/native" || first.Procs != 1 {
		t.Errorf("first entry = %q procs %d", first.Name, first.Procs)
	}
	if first.Iterations != 20 || first.Metrics["ns/op"] != 181771 {
		t.Errorf("first entry iterations/ns = %d/%v", first.Iterations, first.Metrics["ns/op"])
	}

	replay := doc.Benchmarks[1]
	if replay.Name != "BenchmarkFig8/503.postencil/arbalest-replay" || replay.Procs != 4 {
		t.Errorf("procs suffix not split: %q procs %d", replay.Name, replay.Procs)
	}

	custom := doc.Benchmarks[2]
	if custom.Metrics["peak-bytes"] != 2097152 {
		t.Errorf("custom metric = %v, want 2097152", custom.Metrics["peak-bytes"])
	}

	cas := doc.Benchmarks[3]
	if cas.Procs != 8 || cas.Metrics["ns/op"] != 14.02 || cas.Metrics["allocs/op"] != 0 {
		t.Errorf("cas entry = %+v", cas)
	}
}

func TestParseLineRejectsBadMetric(t *testing.T) {
	if _, ok, err := parseLine("BenchmarkX 10 abc ns/op"); err == nil || ok {
		t.Fatalf("want error on malformed metric value, got ok=%v err=%v", ok, err)
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkFig8/554.pcg/arbalest-replay", "BenchmarkFig8/554.pcg/arbalest-replay", 1},
		{"BenchmarkFig8/554.pcg/arbalest-replay-16", "BenchmarkFig8/554.pcg/arbalest-replay", 16},
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

func TestLabelFlags(t *testing.T) {
	var l labelFlags
	if err := l.Set("workers=4"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("commit=abc"); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "commit=abc,workers=4" {
		t.Errorf("String() = %q", got)
	}
	if err := l.Set("noequals"); err == nil {
		t.Error("want error for label without '='")
	}
}

func TestCPUsLabel(t *testing.T) {
	if got := withCPUs(nil, 2); got["cpus"] != "2" {
		t.Errorf("withCPUs(nil, 2) = %v", got)
	}
	if got := withCPUs(map[string]string{"cpus": "64", "commit": "abc"}, 2); got["cpus"] != "64" || got["commit"] != "abc" {
		t.Errorf("caller labels not kept: %v", got)
	}
}

// countSample is -count 3 output: three lines per benchmark that must fold
// into one entry with mean metrics.
const countSample = `goos: linux
BenchmarkFig8/552.pep/arbalest-replay 	100	100000 ns/op	100.00 MB/s	200 B/op	10 allocs/op
BenchmarkFig8/552.pep/arbalest-replay 	100	140000 ns/op	80.00 MB/s	220 B/op	12 allocs/op
BenchmarkFig8/552.pep/arbalest-replay 	100	120000 ns/op	90.00 MB/s	240 B/op	11 allocs/op
BenchmarkFig8/554.pcg/arbalest-replay 	100	2000000 ns/op
PASS
`

func TestParseAggregatesCountRepetitions(t *testing.T) {
	doc, err := Parse(strings.NewReader(countSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Benchmarks); got != 2 {
		t.Fatalf("parsed %d entries, want 2 (repetitions folded)", got)
	}
	pep := doc.Benchmarks[0]
	if pep.Count != 3 || pep.Iterations != 300 {
		t.Errorf("pep count/iterations = %d/%d, want 3/300", pep.Count, pep.Iterations)
	}
	if got := pep.Metrics["ns/op"]; got != 120000 {
		t.Errorf("mean ns/op = %v, want 120000", got)
	}
	if got := pep.Metrics["MB/s"]; got != 90 {
		t.Errorf("mean MB/s = %v, want 90", got)
	}
	if got := pep.Metrics["allocs/op"]; got != 11 {
		t.Errorf("mean allocs/op = %v, want 11", got)
	}
	pcg := doc.Benchmarks[1]
	if pcg.Count != 1 || pcg.Metrics["ns/op"] != 2000000 {
		t.Errorf("pcg = %+v", pcg)
	}
}
