package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

// daemonBin is the arbalestd the tests drive, built once by TestMain.
var daemonBin string

func TestMain(m *testing.M) {
	if os.Getenv(coldEnv) != "" {
		// Re-executed by coldPasses as the online set-up child.
		os.Exit(coldPass(os.Stdout))
	}
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if daemonBin, err = buildDaemon(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func newTestBench(t *testing.T, traced bool, recorded map[string]*input) *bench {
	return &bench{
		seed: 1, window: 500 * time.Millisecond, traced: traced,
		daemon: daemonBin, workdir: t.TempDir(),
		spans: &spanLog{epoch: time.Now()}, recorded: recorded,
	}
}

// checkRun asserts a run answered correctly, failed nothing, and reported
// every metric of defs with its unit; positive ones must read above zero
// (per-layer differences and counts may not).
func checkRun(t *testing.T, rep *report, got map[string]metric, defs []metricDef, positive bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d errors=%v", rep.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", rep.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, want %q", rep.Workload, d.Name, m.Unit, d.Unit)
		case positive && m.Value <= 0:
			t.Errorf("%s: %s = %v", rep.Workload, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload for a short window with all its checks:
// the known answers, no failed operation, every end-to-end metric.
func TestSmoke(t *testing.T) {
	start := time.Now()
	recorded := map[string]*input{}
	for _, wl := range workloads {
		rep, err := newTestBench(t, false, recorded).run(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		checkRun(t, rep, rep.Metrics, e2eMetrics, true)
		checkRun(t, rep, rep.Observed, observedDefs, true)
	}
	t.Logf("all workloads in %v", time.Since(start))
}

// TestTracedRunReportsEveryLayer runs the cheapest workload traced: the
// per-layer metrics, spans and self times all come out.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	b := newTestBench(t, true, map[string]*input{})
	rep, err := b.run(workloads[1])
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, rep, rep.Layers, layerDefs, false)
	if len(b.spans.spans) == 0 || rep.SelfMs["job"] <= 0 {
		t.Fatalf("no spans or job self time: %d spans, self %v", len(b.spans.spans), rep.SelfMs)
	}
	if c := rep.Layers["service.span_coverage"].Value; c <= 0.5 || c > 1 {
		t.Errorf("job spans cover %.2f of the job", c)
	}
}

func TestSeededOrderIsDeterministic(t *testing.T) {
	a, b := order(7, 3, 56), order(7, 3, 56)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two orders")
	}
	if slices.Equal(a, order(8, 3, 56)) {
		t.Fatal("seeds 7 and 8 gave the same order")
	}
	if slices.Equal(a, order(7, 4, 56)) {
		t.Fatal("two passes through the inputs gave the same order")
	}
	s := slices.Clone(a)
	slices.Sort(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("order is not a permutation: %v", a)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {50, 60}}, 80},
		{"overlapping counted once", [][2]int64{{10, 40}, {30, 50}}, 60},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", [][2]int64{{-50, 10}, {90, 200}}, 80},
		{"unsorted", [][2]int64{{50, 60}, {10, 20}}, 80},
	} {
		if got := selfNanos(0, 100, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
	spans := []spanRecord{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 0, End: 30},
		{ID: 3, Parent: 2, Start: 5, End: 10},
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, map[int]int64{1: 70, 2: 25, 3: 5}) {
		t.Errorf("selfTimes = %v", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []workload  `json:"workloads"`
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end\n%+v\nwant\n%+v", spec.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, layerDefs) {
		t.Errorf("per_layer\n%+v\nwant\n%+v", spec.PerLayer, layerDefs)
	}
}
