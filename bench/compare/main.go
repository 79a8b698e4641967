// Command compare judges benchmark runs of a change against runs of its
// parent. For each workload and end-to-end metric it prints each side's
// quartiles, how many run pairs the change won, and a verdict:
//
//	go run ./compare -a parent/*.json -b change/*.json
//
// Each file holds the standard output of one benchmark run: a workload
// report and its result line, or the document of a run of every workload.
// Runs pair up in the order given, so alternate the two commits when
// producing them. The verdicts follow the benchmark's rules:
//
//   - improved: the change won at least nine tenths of the pairs (ties
//     count for neither) and the medians differ by more than the parent's
//     quartile spread;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound, or (failed operations) it is worse at all;
//   - unresolved: a side's quartile spread, as a share of its median, is
//     wider than the bound, and not every change run beats every parent run;
//   - no-regression: otherwise.
//
// The exit status is 1 if any metric regressed, and 2 if the two sides
// measured different inputs (their fingerprints differ) or cannot be read.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"text/tabwriter"

	"repro/bench/stat"
)

type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type report struct {
	Workload      string            `json:"workload"`
	Fingerprint   map[string]int    `json:"fingerprint"`
	OpsFailedFrac float64           `json:"ops_failed_frac"`
	Metrics       map[string]metric `json:"metrics"`
	Observed      map[string]metric `json:"observed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	a, b, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		fmt.Fprintln(stderr, "usage: compare -a PARENT.json... -b CHANGE.json...")
		return 2
	}
	ra, err := load(a)
	if err == nil {
		var rb map[string][]report
		if rb, err = load(b); err == nil {
			return compare(ra, rb, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

// parseArgs splits the arguments into the files after -a and after -b.
// Shell globs usually arrive expanded; an unexpanded pattern is expanded
// here.
func parseArgs(args []string) (a, b []string, err error) {
	var side *[]string
	for _, arg := range args {
		switch arg {
		case "-a", "--a":
			side = &a
		case "-b", "--b":
			side = &b
		default:
			if side == nil {
				return nil, nil, fmt.Errorf("%q before -a or -b", arg)
			}
			paths, err := filepath.Glob(arg)
			if err != nil || len(paths) == 0 {
				paths = []string{arg}
			}
			*side = append(*side, paths...)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, errors.New("need files on both sides")
	}
	return a, b, nil
}

// load reads every workload report from the files, in file order.
func load(paths []string) (map[string][]report, error) {
	out := map[string][]report{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		found := 0
		for {
			var raw json.RawMessage
			if err := dec.Decode(&raw); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			var one report
			var all struct {
				Reports []report `json:"reports"`
			}
			if json.Unmarshal(raw, &one) == nil && one.Workload != "" {
				all.Reports = []report{one}
			} else if err := json.Unmarshal(raw, &all); err != nil {
				continue
			}
			for _, r := range all.Reports {
				out[r.Workload] = append(out[r.Workload], r)
				found++
			}
		}
		if found == 0 {
			return nil, fmt.Errorf("%s: no benchmark report", path)
		}
	}
	return out, nil
}

func compare(ra, rb map[string][]report, stdout, stderr io.Writer) int {
	var names []string
	for w := range ra {
		if _, ok := rb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "compare: the two sides share no workload")
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1 / median / q3\tchange q1 / median / q3\twins\tverdict")
	code := 0
	for _, w := range names {
		as, bs := ra[w], rb[w]
		for _, r := range append(as[1:], bs...) {
			if !reflect.DeepEqual(r.Fingerprint, as[0].Fingerprint) {
				fmt.Fprintf(stderr, "compare: %s: runs measured different inputs: %v vs %v\n", w, as[0].Fingerprint, r.Fingerprint)
				return 2
			}
		}
		for _, gated := range []bool{true, false} {
			defs := as[0].Metrics
			if !gated {
				defs = as[0].Observed
			}
			var keys []string
			for m := range defs {
				keys = append(keys, m)
			}
			sort.Strings(keys)
			for _, m := range keys {
				va, vb := values(as, m, gated), values(bs, m, gated)
				v, wins := verdict(va, vb, defs[m].Better == "higher", defs[m].Bound)
				switch {
				case !gated:
					v = "(not gated)"
				case v == "regression":
					code = 1
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", w, m, quart(va), quart(vb), wins, min(len(va), len(vb)), v)
			}
		}
		fa, fb := failed(as), failed(bs)
		v := "no-regression"
		if stat.Median(fb) > stat.Median(fa) {
			v, code = "regression", 1
		}
		fmt.Fprintf(tw, "%s\tops_failed_frac\t%s\t%s\t-\t%s\n", w, quart(fa), quart(fb), v)
	}
	tw.Flush()
	return code
}

func values(rs []report, name string, gated bool) []float64 {
	var out []float64
	for _, r := range rs {
		src := r.Metrics
		if !gated {
			src = r.Observed
		}
		if m, ok := src[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failed(rs []report) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.OpsFailedFrac)
	}
	return out
}

func quart(xs []float64) string {
	q1, q2, q3 := stat.Quartiles(xs)
	return fmt.Sprintf("%.4g / %.4g / %.4g", q1, q2, q3)
}

// verdict judges change runs b against parent runs a for a metric where
// higher or lower is better, allowing it to worsen by bound (a share of the
// parent's median). wins counts the pairs the change won.
func verdict(a, b []float64, higher bool, bound float64) (v string, wins int) {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	aq1, am, aq3 := stat.Quartiles(a)
	bq1, bm, bq3 := stat.Quartiles(b)
	spread := math.Max((aq3-aq1)/math.Abs(am), (bq3-bq1)/math.Abs(bm))
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (bm - am) / math.Abs(am)
	if higher {
		worse = -worse
	}
	switch {
	case spread > bound && !allBetter:
		return "unresolved", wins
	case pairs > 0 && wins*10 >= 9*pairs && math.Abs(bm-am) > aq3-aq1:
		return "improved", wins
	case worse > bound:
		return "regression", wins
	}
	return "no-regression", wins
}
