// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can archive benchmark runs (BENCH_fig8.json) and
// diff them across commits without scraping the text format twice.
//
// Usage:
//
//	go test -run xxx -bench Fig8 -benchtime 1x -cpu 1 . | benchjson -o BENCH_fig8.json
//
// Non-benchmark lines (goos/goarch headers, PASS/ok trailers, test chatter)
// are ignored. Each benchmark line contributes one entry with its iteration
// count, every reported metric (ns/op, B/op, allocs/op, and custom metrics
// like peak-bytes), and the GOMAXPROCS suffix parsed off the name. The
// document is labeled with the machine's core count (cpus).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result, aggregated across `-count` repetitions.
type Entry struct {
	// Name is the benchmark name without the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran under.
	Procs int `json:"procs"`
	// Count is the number of samples (bench lines) folded into this entry
	// — the `go test -count` repetitions. Gate tooling can refuse to
	// compare single-sample documents, which are too noisy for a 5% bar.
	Count int `json:"count"`
	// Iterations is the total measured iteration count (sum of the b.N
	// column over all samples).
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> mean value across samples for every
	// "<value> <unit>" pair on the line: ns/op, B/op, allocs/op, MB/s,
	// and custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the emitted document.
type Doc struct {
	// Labels carries key=value context: cpus (the core count of the
	// machine that ran the benchmarks) plus any caller-provided labels.
	Labels map[string]string `json:"labels,omitempty"`
	// Benchmarks holds one entry per benchmark line, input order preserved.
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	var labels labelFlags
	flag.Var(&labels, "label", "key=value label to attach (repeatable)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: go test -bench ... | benchjson [-label k=v]... [-o FILE]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	doc, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Labels = withCPUs(labels.m, runtime.NumCPU())

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// withCPUs adds the cpus label to labels unless the caller set one.
func withCPUs(labels map[string]string, cpus int) map[string]string {
	if labels == nil {
		labels = make(map[string]string)
	}
	if _, ok := labels["cpus"]; !ok {
		labels["cpus"] = strconv.Itoa(cpus)
	}
	return labels
}

// labelFlags accumulates repeated -label key=value flags.
type labelFlags struct{ m map[string]string }

func (l *labelFlags) String() string {
	if l == nil || len(l.m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l.m))
	for k := range l.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + l.m[k]
	}
	return strings.Join(parts, ",")
}

func (l *labelFlags) Set(v string) error {
	k, val, ok := strings.Cut(v, "=")
	if !ok || k == "" {
		return fmt.Errorf("label %q: want key=value", v)
	}
	if l.m == nil {
		l.m = make(map[string]string)
	}
	l.m[k] = val
	return nil
}

// Parse reads `go test -bench` output and collects the benchmark lines.
// Repetitions of one benchmark (`-count N` emits N lines with the same
// name) are folded into a single entry whose metrics are the mean across
// samples — the stabilized form the bench gate diffs at a 5% threshold.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Entry{}}
	index := make(map[string]int)              // name + procs -> doc.Benchmarks slot
	samples := make(map[string]map[string]int) // per-entry, per-unit sample counts
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		e, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		key := e.Name + "\x00" + strconv.Itoa(e.Procs)
		i, seen := index[key]
		if !seen {
			index[key] = len(doc.Benchmarks)
			doc.Benchmarks = append(doc.Benchmarks, Entry{
				Name: e.Name, Procs: e.Procs, Metrics: make(map[string]float64),
			})
			samples[key] = make(map[string]int)
			i = index[key]
		}
		agg := &doc.Benchmarks[i]
		agg.Count++
		agg.Iterations += e.Iterations
		for unit, v := range e.Metrics {
			agg.Metrics[unit] += v // sum now, divide once all lines are in
			samples[key][unit]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, i := range index {
		agg := &doc.Benchmarks[i]
		for unit, n := range samples[key] {
			agg.Metrics[unit] /= float64(n)
		}
	}
	return doc, nil
}

// parseLine decodes one line. ok is false for non-benchmark lines.
func parseLine(line string) (e Entry, ok bool, err error) {
	f := strings.Fields(line)
	// Shortest valid line: name, iterations, value, unit.
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Entry{}, false, nil
	}
	iters, ierr := strconv.ParseInt(f[1], 10, 64)
	if ierr != nil {
		return Entry{}, false, nil // e.g. "BenchmarkX ... FAIL" chatter
	}
	e.Name, e.Procs = splitProcs(f[0])
	e.Iterations = iters
	e.Metrics = make(map[string]float64)
	for i := 2; i+1 < len(f); i += 2 {
		v, verr := strconv.ParseFloat(f[i], 64)
		if verr != nil {
			return Entry{}, false, fmt.Errorf("line %q: bad metric value %q", line, f[i])
		}
		e.Metrics[f[i+1]] = v
	}
	return e, true, nil
}

// splitProcs strips the trailing -N GOMAXPROCS suffix Go appends to
// benchmark names (absent when GOMAXPROCS is 1).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p < 1 {
		return name, 1
	}
	return name[:i], p
}
