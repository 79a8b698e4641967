// Command arbalest runs a single program under a chosen analysis tool and
// prints the diagnostics — the command-line experience of the paper's
// Fig. 7 (ARBALEST's output on 503.postencil).
//
// Usage:
//
//	arbalest [-tool arbalest] [-list] <program>
//	arbalest -replay-trace FILE [-workers N] [-tool arbalest] [-json]
//	arbalest -submit URL <program>     record, upload, poll a batch job
//	arbalest -stream URL <program>     record and stream live to a session
//	arbalest -fleet-status URL         print the daemon's federated fleet
//	                                   status (workers, leases, latencies)
//
// -submit and -stream accept -tenant NAME (sent as X-Arbalest-Tenant, the
// identity the daemon's per-tenant rate limits, quotas, and weighted-fair
// dispatch key on) and -deadline DUR (sent as X-Arbalest-Deadline; the
// daemon sheds the job if the deadline passes before replay starts). When
// the daemon throttles a tenant (HTTP 429) the client backs off, honoring
// the Retry-After hint.
//
// Uploads carry a W3C traceparent header, so every submitted job and stream
// is one distributed trace on the daemon (GET /v1/traces/<id>); the trace
// id is printed alongside the job/session id.
//
// where <program> is a DRACC benchmark name or ID (e.g. DRACC_OMP_022 or
// 22), a SPEC-ACCEL workload name (e.g. 503.postencil), or
// "postencil-buggy" for the §VI-D case study.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/ompt"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/specaccel"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/tools"
	"repro/internal/trace"
)

func main() {
	tool := flag.String("tool", "arbalest", "analysis tool: arbalest, arbalest-vsm, archer, valgrind, asan, msan")
	list := flag.Bool("list", false, "list available programs and exit")
	theorem1 := flag.Bool("theorem1", false, "run the paper's Theorem 1 procedure (race check on the async schedule + VSM with forced-synchronous kernels)")
	repairFlag := flag.Bool("repair", false, "repair stale accesses on the fly (paper §III-C); implies -tool arbalest-vsm")
	saveTrace := flag.String("save-trace", "", "record the execution's tool-interface events to this JSON-lines file")
	framed := flag.Bool("framed", false, "write -save-trace in the CRC32C-framed binary format (corruption-detecting; replay and submit auto-detect either format)")
	replayTrace := flag.String("replay-trace", "", "skip execution: replay a recorded trace file into the chosen tool")
	jsonOut := flag.Bool("json", false, "emit the result as JSON (the same summary schema arbalestd serves)")
	submit := flag.String("submit", "", "arbalestd base URL (e.g. http://localhost:8321): record the program's trace and submit it for remote analysis instead of analyzing locally")
	streamURL := flag.String("stream", "", "arbalestd base URL: stream the program's trace live to an analysis session as framed chunks (resumable; see internal/stream)")
	fleetStatusURL := flag.String("fleet-status", "", "arbalestd base URL: print the federated fleet status (/v1/fleet/status) and exit")
	tenantName := flag.String("tenant", "", "tenant identity sent with -submit and -stream admissions (X-Arbalest-Tenant header; empty = the daemon's default tenant)")
	deadline := flag.String("deadline", "", "completion deadline sent with -submit and -stream admissions (X-Arbalest-Deadline header): a Go duration like \"30s\" or an RFC 3339 timestamp")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	clientTenant, clientDeadline = *tenantName, *deadline

	if *version {
		bi := telemetry.Version()
		fmt.Printf("arbalest %s %s\n", bi.Version, bi.GoVersion)
		return
	}
	if *list {
		listPrograms()
		return
	}
	if *fleetStatusURL != "" {
		os.Exit(fleetStatus(*fleetStatusURL, *jsonOut))
	}
	if *replayTrace != "" {
		if *submit != "" {
			os.Exit(submitTraceFile(*submit, *replayTrace, *tool, *jsonOut))
		}
		if *streamURL != "" {
			os.Exit(streamTraceFile(*streamURL, *replayTrace, *tool, *jsonOut))
		}
		os.Exit(runReplay(*replayTrace, *tool, *jsonOut))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: arbalest [-tool name] [-theorem1] [-submit url] <program>   (see -list)")
		os.Exit(2)
	}
	name := flag.Arg(0)

	run, ok := resolve(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "arbalest: unknown program %q (see -list)\n", name)
		os.Exit(2)
	}

	if *theorem1 {
		os.Exit(runTheorem1(name, run))
	}

	if *submit != "" {
		os.Exit(submitProgram(*submit, name, run, *tool, *saveTrace, *framed, *jsonOut))
	}
	if *streamURL != "" {
		os.Exit(streamProgram(*streamURL, name, run, *tool, *jsonOut))
	}

	if *repairFlag {
		*tool = "arbalest-vsm"
	}
	a, err := tools.New(*tool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		os.Exit(2)
	}
	toolSet := []ompt.Tool{a}
	var recorder *trace.Recorder
	if *saveTrace != "" {
		recorder = trace.NewRecorder()
		toolSet = append(toolSet, recorder)
	}
	rt := omp.NewRuntime(omp.Config{NumThreads: 4, ForceSync: strings.HasPrefix(*tool, "arbalest")}, toolSet...)
	if *repairFlag {
		if vsm, ok := a.(*core.Arbalest); ok {
			vsm.AttachRepairer(rt)
		}
	}
	if err := rt.Run(func(c *omp.Context) error {
		run(c)
		return nil
	}); err != nil {
		fmt.Fprintf(os.Stderr, "note: simulated runtime fault (often part of the bug): %v\n", err)
	}

	if recorder != nil {
		if err := writeTrace(*saveTrace, recorder, *framed); err != nil {
			fmt.Fprintln(os.Stderr, "arbalest:", err)
			os.Exit(1)
		}
		fmt.Printf("trace (%d events) written to %s\n", recorder.Len(), *saveTrace)
	}

	if *jsonOut {
		summary := tools.Summarize(a)
		printJSON(summary)
		if summary.Issues > 0 {
			os.Exit(1)
		}
		return
	}
	reports := a.Sink().Reports()
	if len(reports) == 0 {
		fmt.Printf("%s: no issues detected in %s\n", a.Name(), name)
		return
	}
	for _, r := range reports {
		fmt.Println(r)
	}
	fmt.Printf("%s: %d issue(s) detected in %s\n", a.Name(), len(reports), name)
	os.Exit(1)
}

// clientTenant and clientDeadline hold the -tenant and -deadline flag
// values; tenantHeaders stamps them onto every admission request.
var clientTenant, clientDeadline string

// tenantHeaders adds the caller's tenant identity and completion deadline
// to an admission request (job submit, stream open). The tenant is bound at
// admission, so per-session follow-ups (chunk uploads, polls, close) do not
// need the headers.
func tenantHeaders(h http.Header) {
	if clientTenant != "" {
		h.Set(tenant.Header, clientTenant)
	}
	if clientDeadline != "" {
		h.Set(tenant.DeadlineHeader, clientDeadline)
	}
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeTrace saves a recorded trace to path, framed (CRC32C-checked binary)
// or as JSON lines. Readers auto-detect the format, so the choice only
// affects corruption detection and size on disk.
func writeTrace(path string, rec *trace.Recorder, framed bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if framed {
		return rec.Trace().SaveFramed(f)
	}
	return rec.Trace().Save(f)
}

// runReplay loads a trace file (either encoding) and replays it into the
// chosen tool, the same load-then-replay path the daemon takes.
func runReplay(path, toolName string, jsonOut bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	defer f.Close()
	a, err := tools.New(toolName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	tr, err := trace.Load(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	stats, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{}, a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	if jsonOut {
		summary := tools.Summarize(a)
		printJSON(summary)
		if summary.Issues > 0 {
			return 1
		}
		return 0
	}
	reports := a.Sink().Reports()
	fmt.Printf("replayed %d events from %s under %s (%d epoch(s))\n",
		stats.Events, path, a.Name(), stats.Epochs)
	for _, r := range reports {
		fmt.Println(r)
	}
	if len(reports) == 0 {
		fmt.Println("no issues detected")
		return 0
	}
	fmt.Printf("%s: %d issue(s) detected\n", a.Name(), len(reports))
	return 1
}

// submitProgram records name's execution as a trace and pushes it to an
// arbalestd daemon, closing the record -> submit -> analyze loop. The trace
// is recorded with the same runtime configuration a local run under toolName
// would use, so daemon results match one-shot results.
func submitProgram(baseURL, name string, run func(c *omp.Context), toolName, savePath string, framed, jsonOut bool) int {
	recorder := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumThreads: 4, ForceSync: strings.HasPrefix(toolName, "arbalest")}, recorder)
	if err := rt.Run(func(c *omp.Context) error {
		run(c)
		return nil
	}); err != nil {
		fmt.Fprintf(os.Stderr, "note: simulated runtime fault (often part of the bug): %v\n", err)
	}
	if savePath != "" {
		if err := writeTrace(savePath, recorder, framed); err != nil {
			fmt.Fprintln(os.Stderr, "arbalest:", err)
			return 1
		}
	}
	return submitTrace(baseURL, recorder.Trace(), toolName, jsonOut)
}

// submitTraceFile pushes an already-recorded trace file to the daemon.
func submitTraceFile(baseURL, path, toolName string, jsonOut bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	return submitTrace(baseURL, tr, toolName, jsonOut)
}

// submitTrace POSTs tr to the daemon with retries, polls the job until it
// settles, and prints the result. Transient failures (connection errors,
// 429 queue-full, 503 not-ready) are retried with capped exponential
// backoff and jitter, honoring any Retry-After the daemon sends; every
// attempt carries the same Idempotency-Key header, so a retry of an
// upload the daemon already accepted is deduplicated server-side instead
// of analyzed twice.
func submitTrace(baseURL string, tr *trace.Trace, toolName string, jsonOut bool) int {
	baseURL = strings.TrimSuffix(baseURL, "/")
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "arbalest:", err)
		return 2
	}
	body := buf.Bytes()
	client := &http.Client{Timeout: 30 * time.Second}
	key := retry.NewKey()
	// One trace per upload, shared by every retry attempt (like the
	// idempotency key): the daemon parents the job's span tree under it.
	tc := telemetry.NewTraceContext()
	var view service.JobView
	err := retry.Policy{}.Do(context.Background(), func(attempt int) error {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "arbalest: submit retry %d...\n", attempt)
		}
		req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/jobs?tool="+toolName, bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set(retry.IdempotencyHeader, key)
		tc.Inject(req.Header)
		tenantHeaders(req.Header)
		resp, err := client.Do(req)
		if err != nil {
			return err // connection-level failure: retryable
		}
		if retry.StatusRetryable(resp.StatusCode) {
			after := retry.RetryAfter(resp)
			_, derr := decodeJob(resp) // drains and closes the body
			return retry.After(derr, after)
		}
		if view, err = decodeJob(resp); err != nil {
			return retry.Permanent(err) // 4xx validation: retrying won't help
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: submit:", err)
		return 2
	}
	if view.TraceID != "" {
		fmt.Fprintf(os.Stderr, "submitted %d events as %s to %s (trace %s)\n", view.Events, view.ID, baseURL, view.TraceID)
	} else {
		fmt.Fprintf(os.Stderr, "submitted %d events as %s to %s\n", view.Events, view.ID, baseURL)
	}

	deadline := time.Now().Add(5 * time.Minute)
	for view.Status != service.StatusDone && view.Status != service.StatusFailed {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "arbalest: job %s still %s after 5m; gave up\n", view.ID, view.Status)
			return 2
		}
		time.Sleep(100 * time.Millisecond)
		resp, err := client.Get(baseURL + "/v1/jobs/" + view.ID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arbalest: poll:", err)
			return 2
		}
		if view, err = decodeJob(resp); err != nil {
			fmt.Fprintln(os.Stderr, "arbalest: poll:", err)
			return 2
		}
	}

	if jsonOut {
		printJSON(view)
	} else if view.Status == service.StatusFailed {
		fmt.Fprintf(os.Stderr, "arbalest: job %s failed: %s\n", view.ID, view.Error)
	} else {
		for i := range view.Result.Reports {
			fmt.Println(&view.Result.Reports[i])
		}
		fmt.Printf("%s (remote): %d issue(s) detected\n", view.Result.Tool, view.Result.Issues)
	}
	switch {
	case view.Status == service.StatusFailed:
		return 2
	case view.Result != nil && view.Result.Issues > 0:
		return 1
	}
	return 0
}

// decodeJob reads one JobView from an arbalestd response, surfacing the
// daemon's error body on non-2xx statuses.
func decodeJob(resp *http.Response) (service.JobView, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return service.JobView{}, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return service.JobView{}, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return service.JobView{}, fmt.Errorf("%s", resp.Status)
	}
	var view service.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return service.JobView{}, err
	}
	return view, nil
}

// runTheorem1 applies the two-hypothesis procedure of paper §IV-E and
// returns the process exit code.
func runTheorem1(name string, run func(c *omp.Context)) int {
	racer, _ := tools.New("archer")
	rt := omp.NewRuntime(omp.Config{NumThreads: 4}, racer)
	_ = rt.Run(func(c *omp.Context) error { run(c); return nil })

	vsm, _ := tools.New("arbalest-vsm")
	rt = omp.NewRuntime(omp.Config{NumThreads: 4, ForceSync: true}, vsm)
	_ = rt.Run(func(c *omp.Context) error { run(c); return nil })

	races := racer.Sink().Count()
	issues := vsm.Sink().Count()
	verdict := func(n int) string {
		if n == 0 {
			return "holds"
		}
		return "FAILS"
	}
	fmt.Printf("Theorem 1 on %s:\n", name)
	fmt.Printf("  hypothesis 1 (data-race-free):          %s (%d reports)\n", verdict(races), races)
	fmt.Printf("  hypothesis 2 (VSM clean, forced sync):  %s (%d reports)\n", verdict(issues), issues)
	if races == 0 && issues == 0 {
		fmt.Println("=> free of data mapping issues in ALL schedules")
		return 0
	}
	fmt.Println("=> data mapping issue possible; diagnostics:")
	for _, r := range racer.Sink().Reports() {
		fmt.Println(r)
	}
	for _, r := range vsm.Sink().Reports() {
		fmt.Println(r)
	}
	return 1
}

func resolve(name string) (func(c *omp.Context), bool) {
	if name == "postencil-buggy" {
		return func(c *omp.Context) { specaccel.RunPostencilBuggy(c, 2) }, true
	}
	if w := specaccel.ByName(name); w != nil {
		return func(c *omp.Context) { _ = w.Run(c, 1) }, true
	}
	id := 0
	if n, err := strconv.Atoi(name); err == nil {
		id = n
	} else if strings.HasPrefix(name, "DRACC_OMP_") {
		if n, err := strconv.Atoi(strings.TrimPrefix(name, "DRACC_OMP_")); err == nil {
			id = n
		}
	}
	if b := dracc.ByID(id); b != nil {
		return b.Run, true
	}
	return nil, false
}

func listPrograms() {
	fmt.Println("DRACC benchmarks:")
	for _, b := range dracc.All() {
		marker := " "
		if b.Defect != dracc.DefectNone {
			marker = "*"
		}
		fmt.Printf("  %s %-14s (%s) %s\n", marker, b.Name(), b.Defect, b.Brief)
	}
	fmt.Println("\nSPEC-ACCEL workloads:")
	for _, w := range specaccel.All() {
		fmt.Printf("    %-14s %s\n", w.Name, w.Brief)
	}
	fmt.Println("    postencil-buggy  the §VI-D pointer-swap case study (paper Figs. 6/7)")
	fmt.Println("\n(* = known data mapping issue)")
}
