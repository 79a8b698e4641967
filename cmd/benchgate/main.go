// Command benchgate compares a fresh benchjson document against a
// committed baseline and fails when any shared benchmark's mean ns/op
// regressed past the threshold. It is the CI "perf gate that remembers":
// the committed BENCH_*.json files are the memory, and a PR that slows a
// gated benchmark down by more than the threshold fails until either the
// regression is fixed or the baseline is deliberately regenerated.
//
// Usage:
//
//	benchgate -baseline BENCH_fig8_w1.json -fresh /tmp/fresh_w1.json [-threshold 0.05]
//
// Exit status 0 when every shared benchmark is within threshold, 1 on any
// regression, 2 on usage or decode errors or when the two documents share
// no benchmark (entries match on name and GOMAXPROCS, so a baseline taken
// at another -cpu setting compares nothing).
//
// Overrides:
//
//	BENCH_GATE_SKIP=<non-empty>   skip the comparison entirely (exit 0).
//	    For intentional baseline resets: set it on the CI run that lands
//	    regenerated BENCH_*.json files, and drop it again afterwards.
//	BENCH_GATE_THRESHOLD=<float>  override the regression threshold
//	    (fraction, e.g. 0.10 for 10%) without editing the workflow.
//
// Benchmarks present in only one document are reported but never fail the
// gate (new benchmarks have no baseline yet; retired ones have no fresh
// run). Improvements never fail, regardless of size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// Entry mirrors benchjson's aggregated benchmark entry.
type Entry struct {
	Name    string             `json:"name"`
	Procs   int                `json:"procs"`
	Count   int                `json:"count"`
	Metrics map[string]float64 `json:"metrics"`
}

// Doc mirrors benchjson's document.
type Doc struct {
	Labels     map[string]string `json:"labels,omitempty"`
	Benchmarks []Entry           `json:"benchmarks"`
}

// Regression describes one benchmark that got slower past the threshold.
type Regression struct {
	Name     string
	Baseline float64 // mean ns/op in the committed baseline
	Fresh    float64 // mean ns/op in the fresh run
}

// Ratio returns fresh/baseline.
func (r Regression) Ratio() float64 { return r.Fresh / r.Baseline }

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%.2fx)", r.Name, r.Baseline, r.Fresh, r.Ratio())
}

// Compare diffs fresh against baseline at the given threshold (0.05 =
// fail on >5% mean ns/op growth). It returns the regressions, informational
// notes (benchmarks present in only one document), and the number of
// benchmarks the two documents share.
func Compare(baseline, fresh *Doc, threshold float64) (regs []Regression, notes []string, shared int) {
	key := func(e *Entry) string { return e.Name + "\x00" + strconv.Itoa(e.Procs) }
	base := make(map[string]*Entry, len(baseline.Benchmarks))
	for i := range baseline.Benchmarks {
		base[key(&baseline.Benchmarks[i])] = &baseline.Benchmarks[i]
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	for i := range fresh.Benchmarks {
		f := &fresh.Benchmarks[i]
		k := key(f)
		seen[k] = true
		b, ok := base[k]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: no baseline entry (new benchmark?)", f.Name))
			continue
		}
		shared++
		bn, fn := b.Metrics["ns/op"], f.Metrics["ns/op"]
		if bn <= 0 || fn <= 0 {
			notes = append(notes, fmt.Sprintf("%s: missing ns/op (baseline %v, fresh %v)", f.Name, bn, fn))
			continue
		}
		if fn > bn*(1+threshold) {
			regs = append(regs, Regression{Name: f.Name, Baseline: bn, Fresh: fn})
		}
	}
	for k, b := range base {
		if !seen[k] {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in fresh run", b.Name))
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio() > regs[j].Ratio() })
	sort.Strings(notes)
	return regs, notes, shared
}

func load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline benchjson document")
	freshPath := flag.String("fresh", "", "freshly generated benchjson document")
	threshold := flag.Float64("threshold", 0.05, "regression threshold as a fraction of baseline ns/op")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchgate -baseline BASE.json -fresh FRESH.json [-threshold 0.05]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *baselinePath == "" || *freshPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if v := os.Getenv("BENCH_GATE_SKIP"); v != "" {
		fmt.Printf("benchgate: BENCH_GATE_SKIP=%q set, skipping comparison (baseline reset?)\n", v)
		return
	}
	if v := os.Getenv("BENCH_GATE_THRESHOLD"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || t <= 0 {
			fmt.Fprintf(os.Stderr, "benchgate: bad BENCH_GATE_THRESHOLD %q\n", v)
			os.Exit(2)
		}
		*threshold = t
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	regs, notes, shared := Compare(baseline, fresh, *threshold)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if shared == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: baseline and fresh run share no benchmark (same names and -cpu?); nothing compared")
		os.Exit(2)
	}
	if len(regs) == 0 {
		fmt.Printf("benchgate: OK — no benchmark regressed past %.0f%%\n", *threshold*100)
		return
	}
	fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed past %.0f%%:\n", len(regs), *threshold*100)
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "  ", r.String())
	}
	fmt.Fprintln(os.Stderr, "set BENCH_GATE_SKIP=1 only for intentional baseline resets")
	os.Exit(1)
}
