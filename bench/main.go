// Command bench is the end-to-end benchmark of the ARBALEST analysis
// service, from trace upload to finding. It records its input programs,
// starts a fresh arbalestd per workload, drives it over HTTP from this one
// process, checks every finding against a known answer, and prints every
// metric by name and unit. See README.md for the workloads and metrics.
//
// Usage (from this directory):
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-arbalestd BIN]
//
// Without -workload every workload runs in turn and one JSON document holds
// all reports. With -workload the report is followed by a last line holding
// only the headline result. The exit status is 1 if any answer was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/stat"
	"repro/internal/tools"
)

// metricDef describes one metric. BENCHMARK.json at the repository root
// lists the same table; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are what a user of the service sees, reported by every
// workload from its untraced window, and gated. Bound is the share of the
// parent's median by which a metric may worsen before a change counts as a
// regression. Times are gated as ratios to native runs interleaved with
// the load: the reference host's speed drifts by ±15% over tens of
// seconds, which the ratio cancels and an absolute time cannot.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"slowdown", "x", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// observedDefs are end-to-end metrics every report carries but no gate
// uses: absolute rates and latencies, which follow the host's speed, and
// the tail of the slowdown, which rests on a few dozen operations.
var observedDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0},
	{"events_per_s", "1/s", "higher", 0},
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_p95_ms", "ms", "lower", 0},
	{"slowdown_p95", "x", "lower", 0},
}

// layerDefs are the per-layer metrics of a traced run; README.md says
// which end-to-end metric each should move, on which workload.
var layerDefs = []metricDef{
	{"service.parse_ms", "ms", "lower", 0},
	{"service.parse_share", "fraction", "lower", 0},
	{"journal.append_ms", "ms", "lower", 0},
	{"journal.append_share", "fraction", "lower", 0},
	{"tenant.queue_wait_ms", "ms", "lower", 0},
	{"service.replay_ms", "ms", "lower", 0},
	{"service.replay_share", "fraction", "lower", 0},
	{"service.summarize_ms", "ms", "lower", 0},
	{"service.outside_job_ms", "ms", "lower", 0},
	{"service.span_coverage", "fraction", "higher", 0},
	{"client.polls_per_job", "count", "lower", 0},
	{"stream.open_ms", "ms", "lower", 0},
	{"stream.events_ms_per_chunk", "ms", "lower", 0},
	{"stream.close_ms", "ms", "lower", 0},
	{"trace.decode_ns_per_event", "ns/event", "lower", 0},
	{"trace.push_decode_ns_per_event", "ns/event", "lower", 0},
	{"trace.encode_ns_per_event", "ns/event", "lower", 0},
	{"journal.append_ms_per_job", "ms/job", "lower", 0},
	{"trace.columns_ns_per_event", "ns/event", "lower", 0},
	{"ompt.dispatch_ns_per_event", "ns/event", "lower", 0},
	{"core.vsm_ns_per_event", "ns/event", "lower", 0},
	{"race.detect_ns_per_event", "ns/event", "lower", 0},
	{"tools.arbalest_ns_per_event", "ns/event", "lower", 0},
	{"tools.summarize_us_per_job", "us/job", "lower", 0},
	{"omp.native_ns_per_event", "ns/event", "lower", 0},
	{"online.vsm_ns_per_event", "ns/event", "lower", 0},
	{"online.race_ns_per_event", "ns/event", "lower", 0},
	{"online.arbalest_ns_per_event", "ns/event", "lower", 0},
	{"race.share_of_arbalest", "fraction", "lower", 0},
	{"online.race_share_of_arbalest", "fraction", "lower", 0},
	{"online.replay_gap_ns_per_event", "ns/event", "lower", 0},
	{"shadow.interval_lookups_per_access", "count/access", "lower", 0},
	{"shadow.region_memo_hit_frac", "fraction", "higher", 0},
	{"vsm.transitions_per_access", "count/access", "lower", 0},
	{"shadow.cas_retries_per_access", "count/access", "lower", 0},
	{"shadow.peak_bytes", "B", "lower", 0},
	{"service.upload_bytes_per_event", "B/event", "lower", 0},
	{"bench.trace_overhead_frac", "fraction", "lower", 0},
}

// Paths by which a workload's operations reach the detector.
const (
	pathSubmit = "submit"
	pathStream = "stream"
	pathOnline = "online"
)

// workload is one traffic mix.
type workload struct {
	Name     string `json:"name"`
	Why      string `json:"why"`
	programs func() []*program
	path     string
}

var workloads = []workload{
	{"submit-fig8", "Large uploads (1.8k-20.5k events): trace decode, journal re-encode and fsync, column build and the detector do most of the work; per-job fixed costs vanish.", fig8AndBuggy, pathSubmit},
	{"submit-dracc", "Tiny jobs (mean 308 events): admission, fsyncs, fair queue, spans, result JSON and retention GC dominate; a per-job cost added for big traces shows here.", draccPrograms, pathSubmit},
	{"stream-fig8", "The submit-fig8 events on the stream path: push decode, CAS-mode online apply and spool re-framing; a decode or journal change made for jobs must not cost streams.", fig8AndBuggy, pathStream},
	{"online-fig8", "Fig. 8 in process: per-event callbacks with no HTTP, decode or journal, so analysis-layer gains show at full size and decode or journal gains show no change.", fig8Programs, pathOnline},
}

// rssAfterOps is how many operations per input a daemon has served when
// its peak resident set is read: about half of what a 20 s window serves.
const rssAfterOps = 20

// maxClients caps the load generator: two client goroutines over two
// keep-alive connections, one per core of the two-core reference machine.
const maxClients = 2

// coldEnv, when set, makes the binary run coldPass and exit: the child
// side of the online workload's set-up measurement.
const coldEnv = "ARBALEST_BENCH_COLD_PASS"

// metric is one reported value.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// stamp records what a result was measured on and with.
type stamp struct {
	NProc            int     `json:"nproc"`
	BenchGOMAXPROCS  int     `json:"bench_gomaxprocs"`
	DaemonGOMAXPROCS int     `json:"daemon_gomaxprocs,omitempty"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	Dirty            bool    `json:"dirty"`
	SpoolFS          string  `json:"spool_fs,omitempty"`
	Seed             uint64  `json:"seed"`
	WindowS          float64 `json:"window_s"`
	WarmupS          float64 `json:"warmup_s"`
	Clients          int     `json:"clients"`
	Traced           bool    `json:"traced"`
}

// tail is the highest latency percentile with at least ten samples beyond.
type tail struct {
	Percentile float64 `json:"percentile"`
	Ms         float64 `json:"ms"`
}

// report is everything one workload run measured.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Stamp    stamp  `json:"stamp"`
	// Fingerprint is each input's event count: a runtime change that alters
	// the programs shows here instead of silently measuring other inputs.
	Fingerprint   map[string]int `json:"fingerprint"`
	Correct       bool           `json:"correct"`
	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	OpsFailedFrac float64        `json:"ops_failed_frac"`
	Errors        []string       `json:"errors,omitempty"`
	Samples       int            `json:"latency_samples"`
	Tail          *tail          `json:"latency_tail,omitempty"`
	// Metrics are the gated end-to-end metrics, Observed the ungated ones.
	Metrics  map[string]metric `json:"metrics"`
	Observed map[string]metric `json:"observed"`
	Layers   map[string]metric `json:"layers,omitempty"`
	// SelfMs is each span name's median self time per traced operation.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

// result is the headline line: the last line of a single-workload run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench holds one invocation's settings and what it has recorded.
type bench struct {
	seed    uint64
	window  time.Duration
	traced  bool
	daemon  string
	workdir string
	spans   *spanLog
	// recorded memoizes inputs by program name across workloads.
	recorded map[string]*input
}

func main() {
	if os.Getenv(coldEnv) != "" {
		os.Exit(coldPass(os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty = all): submit-fig8, submit-dracc, stream-fig8, online-fig8")
	seed := fs.Uint64("seed", 1, "permutes the order in which each workload visits its inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window, after a warm-up of a tenth of it (at most 2 s)")
	traceFlag := fs.Int("trace", 0, "1 = also run a traced window and report the per-layer metrics")
	spansPath := fs.String("spans", "spans.json", "where a traced run writes its spans")
	daemonBin := fs.String("arbalestd", "", "arbalestd binary (empty = build repro/cmd/arbalestd)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, wl := range workloads {
		if *name == "" || wl.Name == *name {
			todo = append(todo, wl)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	workdir, err := os.MkdirTemp("", "arbalest-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer func() {
		os.RemoveAll(workdir)
		// On a filesystem mounted with discard, deleting the spools issues
		// the discards at the next commit: wait for them here rather than
		// let them slow the next run.
		syscall.Sync()
	}()
	b := &bench{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *traceFlag == 1, daemon: *daemonBin, workdir: workdir,
		spans: &spanLog{epoch: time.Now()}, recorded: map[string]*input{},
	}
	if b.daemon == "" {
		if b.daemon, err = buildDaemon(workdir); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	var reps []*report
	for _, wl := range todo {
		fmt.Fprintf(stderr, "bench: %s (seed %d, %v window)\n", wl.Name, b.seed, b.window)
		rep, err := b.run(wl)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.Name, err)
			return 2
		}
		reps = append(reps, rep)
	}
	if b.traced {
		if err := b.spans.write(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench: write spans:", err)
			return 2
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	code := 0
	for _, rep := range reps {
		if !rep.Correct {
			code = 1
		}
	}
	if len(reps) > 1 {
		_ = enc.Encode(struct {
			Reports []*report `json:"reports"`
		}{reps})
		return code
	}
	rep := reps[0]
	_ = enc.Encode(rep)
	line := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultItem{}}
	src := rep.Metrics
	if b.traced {
		src = rep.Layers
	}
	for k, m := range src {
		line.Metrics[k] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return code
}

// buildDaemon compiles repro/cmd/arbalestd into dir; the benchmark module
// resolves it to this checkout.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "arbalestd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/arbalestd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build arbalestd: %v\n%s", err, out)
	}
	return bin, nil
}

// inputs records (once per invocation) the programs of wl.
func (b *bench) inputs(wl workload) ([]*input, error) {
	var out []*input
	for _, p := range wl.programs() {
		in, ok := b.recorded[p.name]
		if !ok {
			var err error
			if in, err = record(p); err != nil {
				return nil, err
			}
			b.recorded[p.name] = in
		}
		out = append(out, in)
	}
	return out, nil
}

// run measures one workload: set-up, the untraced window that gives the
// end-to-end metrics, and with tracing the per-layer ones.
func (b *bench) run(wl workload) (*report, error) {
	inputs, err := b.inputs(wl)
	if err != nil {
		return nil, err
	}
	clients := min(maxClients, runtime.NumCPU())
	warmup := min(max(b.window/10, 100*time.Millisecond), 2*time.Second)
	rep := &report{
		Workload: wl.Name, Why: wl.Why, Correct: true,
		Stamp:       b.stamp(clients, warmup),
		Fingerprint: map[string]int{},
	}
	for _, in := range inputs {
		rep.Fingerprint[in.prog.name] = in.events()
	}

	var d *daemon
	var setups, rss []float64
	natives := map[*program][]float64{}
	// setUp takes one set-up sample: a throwaway daemon's start, or for the
	// online workload a fresh process's cold pass.
	setUp := func() error {
		if wl.path == pathOnline {
			s, r, err := coldStart()
			if err == nil {
				setups, rss = append(setups, s), append(rss, r)
			}
			return err
		}
		dd, s, err := startDaemon(b.daemon, b.workdir)
		if err == nil {
			dd.stop()
			setups = append(setups, s.Seconds())
		}
		return err
	}
	base := ""
	if wl.path != pathOnline {
		dd, s, err := startDaemon(b.daemon, b.workdir)
		if err != nil {
			return nil, err
		}
		d, base = dd, dd.base
		defer dd.stop()
		setups = append(setups, s.Seconds())
		rep.Stamp.DaemonGOMAXPROCS = d.workers
		rep.Stamp.SpoolFS = fsType(b.workdir)
	}
	// Between periods a run sets up once more, so its set-up samples spread
	// over the window, and the daemon workloads take their slowdown
	// baseline; online pairs every run with its own.
	var pauseErr error
	rounds := 0
	pause := func() {
		if pauseErr == nil {
			pauseErr = setUp()
		}
		if d != nil && pauseErr == nil {
			rounds++
			pauseErr = nativeRound(inputs, order(b.seed, rounds, len(inputs)), clients, natives)
		}
	}
	// The daemon's memory grows with the operations it has served (it keeps
	// up to 1024 finished jobs or sessions), so its peak is read after a
	// fixed count of them, not when the window happens to close.
	var after func(n int)
	var rssErr error
	if d != nil {
		after = func(n int) {
			if n == rssAfterOps*len(inputs) {
				var v float64
				v, rssErr = d.peakRSSMiB()
				rss = append(rss, v)
			}
		}
	}
	// Write back what set-up and earlier runs left dirty now, not during
	// the window.
	syscall.Sync()
	c := newClient(base, clients, false)
	lr := closedLoop(clients, warmup, b.window, inputs, b.seed, drive(wl.path, c, false), pause, after)
	c.close()
	if pauseErr != nil {
		return nil, pauseErr
	}
	if d != nil && len(rss) == 0 && rssErr == nil {
		// A window too short to reach the count reads the peak at its end.
		var v float64
		v, rssErr = d.peakRSSMiB()
		rss = append(rss, v)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	rep.account(lr.ops, lr.wrong)
	if err := rep.endToEnd(lr, natives, setups, rss); err != nil || !b.traced {
		return rep, err
	}
	return rep, b.traceLayers(wl, rep, inputs, clients, warmup, d, lr)
}

// endToEnd fills the report's end-to-end metrics from the untraced window,
// the native baselines and the set-up samples.
func (rep *report) endToEnd(lr loopResult, natives map[*program][]float64, setups, rss []float64) error {
	var lat []float64
	perProg := map[*program][]float64{}
	events := 0
	for _, r := range lr.ops {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency))
		perProg[r.in.prog] = append(perProg[r.in.prog], ms(r.latency))
		if r.native > 0 {
			natives[r.in.prog] = append(natives[r.in.prog], ms(r.native))
		}
		events += r.in.events()
	}
	// slowdown is Fig. 8's statistic: per program, median latency over
	// median native run; geomean over programs. slowdown_p95 is the tail of
	// the same ratio taken per operation.
	var perProgram, perOp []float64
	for p, ls := range perProg {
		base := stat.Median(natives[p])
		perProgram = append(perProgram, stat.Median(ls)/base)
		for _, l := range ls {
			perOp = append(perOp, l/base)
		}
	}
	secs := lr.active.Seconds()
	rep.Samples = len(lat)
	if p, ok := stat.TailPercentile(len(lat)); ok {
		rep.Tail = &tail{Percentile: p, Ms: stat.Percentile(lat, p)}
	}
	var err error
	rep.Metrics, err = fill(e2eMetrics, map[string]float64{
		"setup_s":     stat.Median(setups),
		"slowdown":    stat.Geomean(perProgram),
		"peak_rss_mb": stat.Median(rss),
	})
	if err != nil {
		return err
	}
	rep.Observed, err = fill(observedDefs, map[string]float64{
		"ops_per_s":      float64(len(lr.ops)) / secs,
		"events_per_s":   float64(events) / secs,
		"latency_p50_ms": stat.Percentile(lat, 50),
		"latency_p95_ms": stat.Percentile(lat, 95),
		"slowdown_p95":   stat.Percentile(perOp, 95),
	})
	return err
}

// traceLayers runs the traced window, the probe pass and the in-process
// cells, and fills the report's per-layer metrics. d is the workload's
// daemon, nil for online-fig8; lr is the untraced window, the baseline of
// the tracing overhead.
func (b *bench) traceLayers(wl workload, rep *report, inputs []*input, clients int, warmup time.Duration, d *daemon, lr loopResult) error {
	base := ""
	if d != nil {
		base = d.base
	}
	tc := newClient(base, clients, true)
	lt := closedLoop(clients, warmup, b.window, inputs, b.seed, drive(wl.path, tc, true), nil, nil)
	tc.close()
	rep.account(lt.ops, lt.wrong)
	firstSpan := len(b.spans.spans)
	for i := range lt.ops {
		b.spans.addOp(wl.path, &lt.ops[i])
	}
	// The probe pass measures, on this workload's own inputs, the service
	// paths its window does not take, so every run reports every layer.
	var jobs, streams []opResult
	switch wl.path {
	case pathSubmit:
		jobs = lt.ops
	case pathStream:
		streams = lt.ops
	}
	if d == nil {
		pd, _, err := startDaemon(b.daemon, b.workdir)
		if err != nil {
			return err
		}
		defer pd.stop()
		d = pd
	}
	pc := newClient(d.base, 1, true)
	ord := order(b.seed, 0, len(inputs))
	if jobs == nil {
		jobs = once(inputs, ord, pc.submit)
		b.probe(rep, "probe-submit", jobs)
	}
	if streams == nil {
		streams = once(inputs, ord, pc.stream)
		b.probe(rep, "probe-stream", streams)
	}
	pc.close()
	cellVals, live, err := cells(inputs, filepath.Join(b.workdir, "cells-"+wl.Name))
	if err != nil {
		return err
	}
	summaries := live
	if wl.path != pathOnline {
		summaries = nil
		for _, r := range lt.ops {
			summaries = append(summaries, r.summary)
		}
	}
	overhead := 1 - float64(len(lt.ops))/lt.active.Seconds()/(float64(len(lr.ops))/lr.active.Seconds())
	rep.SelfMs = selfTable(b.spans.spans[firstSpan:])
	rep.Layers, err = fill(layerDefs, layerMetrics(jobs, streams, summaries, inputs, cellVals, overhead))
	return err
}

// nativeRound runs every program natively once on each of clients
// goroutines at the same time, each starting at a different point of ord,
// and adds the times to natives. The baseline thus loads the cores as the
// clients' operations do, and host contention slows both sides of the
// slowdown ratio alike.
func nativeRound(inputs []*input, ord []int, clients int, natives map[*program][]float64) error {
	type sample struct {
		p  *program
		ms float64
	}
	samples := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ord {
				p := inputs[ord[(j+k*len(ord)/clients)%len(ord)]].prog
				el, _, err := runLive(p, "native", false)
				if err != nil {
					errs[k] = err
					return
				}
				samples[k] = append(samples[k], sample{p, ms(el)})
			}
		}()
	}
	wg.Wait()
	for k := range clients {
		if errs[k] != nil {
			return errs[k]
		}
		for _, s := range samples[k] {
			natives[s.p] = append(natives[s.p], s.ms)
		}
	}
	return nil
}

// probe counts and logs the operations of a probe pass.
func (b *bench) probe(rep *report, kind string, ops []opResult) {
	var wrong []opResult
	for i := range ops {
		b.spans.addOp(kind, &ops[i])
		if ops[i].wrong {
			wrong = append(wrong, ops[i])
		}
	}
	rep.account(ops, wrong)
}

// account adds measured operations to the report, and marks it incorrect
// on any wrong answer, measured or not. The first few distinct errors are
// kept for the reader.
func (rep *report) account(ops, wrong []opResult) {
	rep.Attempted += len(ops)
	note := func(err error) {
		if len(rep.Errors) < 10 && !slices.Contains(rep.Errors, err.Error()) {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	for _, r := range ops {
		if r.err != nil {
			rep.Failed++
			note(r.err)
		}
	}
	for _, r := range wrong {
		rep.Correct = false
		note(r.err)
	}
	if rep.Attempted > 0 {
		rep.OpsFailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
}

// drive returns the operation a workload's clients repeat.
func drive(path string, c *client, traced bool) func(*input) opResult {
	switch path {
	case pathSubmit:
		return c.submit
	case pathStream:
		return c.stream
	}
	return func(in *input) opResult { return online(in, traced) }
}

// fill attaches unit, direction and bound to measured values, requiring
// exactly the metrics of defs, each a finite number.
func fill(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, the table lists %d", len(vals), len(defs))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	return out, nil
}

// selfTable returns each span name's median self time in ms.
func selfTable(spans []spanRecord) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = stat.Median(xs)
	}
	return out
}

// stamp describes the machine, build and settings of a run.
func (b *bench) stamp(clients int, warmup time.Duration) stamp {
	s := stamp{
		NProc: runtime.NumCPU(), BenchGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Seed: b.seed, WindowS: b.window.Seconds(), WarmupS: warmup.Seconds(),
		Clients: clients, Traced: b.traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Dirty = kv.Value == "true"
			}
		}
	}
	// go run does not stamp the build; ask git, when this is a checkout.
	if s.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
			st, err := exec.Command("git", "status", "--porcelain").Output()
			s.Dirty = err != nil || len(st) > 0
		}
	}
	return s
}

// coldPass is the child side of the online set-up measurement: a fresh
// process runs each Fig. 8 program once under ARBALEST, checks the answer,
// and prints its peak resident set in MiB.
func coldPass(stdout io.Writer) int {
	for _, p := range fig8Programs() {
		_, a, err := runLive(p, "arbalest", false)
		if err == nil {
			err = p.check(tools.Summarize(a))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: cold pass:", err)
			return 1
		}
	}
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: cold pass:", err)
		return 1
	}
	fmt.Fprintln(stdout, rss)
	return 0
}

// coldStart runs a fresh process through coldPass and returns its wall
// time from exec to exit, in seconds, and its peak resident set in MiB.
func coldStart() (setup, rss float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), coldEnv+"=1")
	start := time.Now()
	out, err := cmd.Output()
	setup = time.Since(start).Seconds()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return 0, 0, fmt.Errorf("cold pass: %w", err)
	}
	if rss, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err != nil {
		return 0, 0, fmt.Errorf("cold pass output %q: %w", out, err)
	}
	return setup, rss, nil
}
