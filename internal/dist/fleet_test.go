// Fleet integration tests: a real coordinator and real worker agents wired
// through loopback HTTP, exercising lease grant, heartbeat expiry, crash
// rescheduling from handed-off checkpoints, fencing-token rejection of
// zombie writes, coordinator-restart token monotonicity, and the inline
// degradation path. The external test package lets the suite drive the
// service backend exactly the way cmd/arbalestd does.
package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dracc"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/omp"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
)

// recordTrace records one DRACC benchmark's execution.
func recordTrace(t *testing.T, id int) *trace.Trace {
	t.Helper()
	b := dracc.ByID(id)
	if b == nil {
		t.Fatalf("no DRACC benchmark %d", id)
	}
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumDevices: b.Devices, NumThreads: 2, ForceSync: true}, rec)
	_ = rt.Run(func(c *omp.Context) error {
		b.Run(c)
		return nil
	})
	return rec.Trace()
}

// oneShot replays tr through a fresh analyzer in-process — the ground truth
// every fleet execution must match byte for byte.
func oneShot(t *testing.T, tr *trace.Trace, toolName string) *tools.Summary {
	t.Helper()
	a, err := tools.New(toolName)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(a); err != nil {
		t.Fatal(err)
	}
	return tools.Summarize(a)
}

func assertSameFindings(t *testing.T, label string, got, want *tools.Summary) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", label)
	}
	if got.Issues != want.Issues || !reflect.DeepEqual(got.KindCounts, want.KindCounts) {
		t.Fatalf("%s: %d issues %v, want %d issues %v", label, got.Issues, got.KindCounts, want.Issues, want.KindCounts)
	}
	gj, _ := json.Marshal(got.Reports)
	wj, _ := json.Marshal(want.Reports)
	if string(gj) != string(wj) {
		t.Fatalf("%s: reports differ\ngot:  %s\nwant: %s", label, gj, wj)
	}
}

// fleet is one coordinator + service pair behind a loopback listener.
type fleet struct {
	t     *testing.T
	svc   *service.Service
	coord *dist.Coordinator
	srv   *httptest.Server
	once  sync.Once
}

// newFleet builds a service in external-dispatch mode, a coordinator on top
// of it, and serves both APIs from one httptest listener — the same topology
// `arbalestd -role coordinator` runs.
func newFleet(t *testing.T, jnl *journal.Journal, leaseTTL, workerTTL time.Duration, doRecover bool) *fleet {
	t.Helper()
	svc := service.New(service.Config{
		Workers:          2,
		QueueSize:        64,
		Journal:          jnl,
		CheckpointEvery:  1,
		ExternalDispatch: true,
	})
	if doRecover {
		if _, err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	ccfg := dist.CoordinatorConfig{
		Backend:   svc,
		LeaseTTL:  leaseTTL,
		WorkerTTL: workerTTL,
		Registry:  svc.Metrics().Registry(),
		Logger:    debugLogger(),
	}
	if jnl != nil {
		ccfg.Fleet = jnl.Fleet()
	}
	coord, err := dist.NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	svc.SetFleetSource(coord)
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/", coord.Handler())
	// Exact pattern outranks the prefix mount — same routing as arbalestd.
	mux.Handle("GET /v1/fleet/status", svc.Handler())
	mux.Handle("/", svc.Handler())
	f := &fleet{t: t, svc: svc, coord: coord, srv: httptest.NewServer(mux)}
	t.Cleanup(f.close)
	return f
}

// close tears the fleet down in the daemon's order: listener, service,
// coordinator.
func (f *fleet) close() {
	f.once.Do(func() {
		f.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.svc.Shutdown(ctx); err != nil {
			f.t.Errorf("service shutdown: %v", err)
		}
		if err := f.coord.Shutdown(ctx); err != nil {
			f.t.Errorf("coordinator shutdown: %v", err)
		}
	})
}

// waitSettled polls until the job reaches done or failed.
func (f *fleet) waitSettled(id string) service.JobView {
	f.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := f.svc.Job(id)
		if !ok {
			f.t.Fatalf("job %s disappeared", id)
		}
		if v.Status == service.StatusDone || v.Status == service.StatusFailed {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.t.Fatalf("job %s never settled", id)
	return service.JobView{}
}

// metric sums every sample of the named family on /metrics (all label
// combinations).
func (f *fleet) metric(name string) float64 {
	f.t.Helper()
	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// waitMetric polls until the named family's sum reaches at least want.
func (f *fleet) waitMetric(name string, want float64, timeout time.Duration) {
	f.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.metric(name) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.t.Fatalf("metric %s never reached %v (now %v)", name, want, f.metric(name))
}

// debugLogger returns a stderr logger when ARBALEST_FLEET_TEST_DEBUG is
// set, nil (discard) otherwise — flip it on when a fleet test misbehaves.
func debugLogger() *slog.Logger {
	if os.Getenv("ARBALEST_FLEET_TEST_DEBUG") == "" {
		return nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

func testRetry() retry.Policy {
	return retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Budget:      10 * time.Second,
	}
}

// startWorkers launches n worker agents against the fleet. With respawn
// set, an agent that dies (simulated crash) is replaced by a fresh one
// under a new ID, the way an orchestrator restarts a crashed pod. Stop by
// canceling ctx, then wait on the returned WaitGroup.
func startWorkers(ctx context.Context, url string, n int, checkpointEvery uint64, respawn bool) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for gen := 0; ctx.Err() == nil; gen++ {
				w := dist.NewWorker(dist.WorkerConfig{
					ID:              fmt.Sprintf("w%d-g%d", i, gen),
					CoordinatorURL:  url,
					PollWait:        50 * time.Millisecond,
					CheckpointEvery: checkpointEvery,
					Retry:           testRetry(),
					Logger:          debugLogger(),
				})
				_ = w.Run(ctx)
				if !respawn {
					return
				}
			}
		}(i)
	}
	return &wg
}

// rawRegister registers a worker over the wire without running an agent —
// the test's hand-driven (and later zombie) participant.
func rawRegister(t *testing.T, url, worker string) {
	t.Helper()
	body := fmt.Sprintf(`{"worker":%q}`, worker)
	resp, err := http.Post(url+"/v1/fleet/workers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", worker, resp.StatusCode)
	}
}

// rawLease polls one lease for worker, returning nil on 204.
func rawLease(t *testing.T, url, worker string, wait time.Duration) *dist.LeaseGrant {
	t.Helper()
	u := fmt.Sprintf("%s/v1/fleet/lease?worker=%s&waitMillis=%d", url, worker, wait.Milliseconds())
	resp, err := http.Post(u, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease for %s: status %d", worker, resp.StatusCode)
	}
	var grant dist.LeaseGrant
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	return &grant
}

// rawPost posts body and returns the status code.
func rawPost(t *testing.T, url, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestFleetRemoteCompletesJob is the happy path: one worker leases the job,
// streams checkpoints, posts the result, and the daemon's answer is
// byte-identical to an in-process replay.
func TestFleetRemoteCompletesJob(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := newFleet(t, nil, 500*time.Millisecond, 10*time.Second, false)
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 1, 1, false)
	defer wg.Wait()
	defer cancel()
	f.waitMetric("arbalestd_fleet_workers", 1, 5*time.Second)

	v, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "remote vs one-shot", got.Result, want)
	if n := f.metric("arbalestd_fleet_leases_granted_total"); n < 1 {
		t.Fatalf("leases granted = %v, want >= 1", n)
	}
	if n := f.metric("arbalestd_fleet_jobs_inline_total"); n != 0 {
		t.Fatalf("job ran inline (%v) despite a live worker", n)
	}
}

// TestFleetCrashRescheduleDRACC is the acceptance sweep: for every DRACC
// benchmark, a worker is killed mid-epoch right after a checkpoint posts,
// the lease expires, another agent resumes from the handed-off checkpoint,
// and the findings are byte-identical to a single-process replay. The job
// reaches done exactly once.
func TestFleetCrashRescheduleDRACC(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	f := newFleet(t, nil, 100*time.Millisecond, 30*time.Second, false)
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 2, 1, true)
	defer wg.Wait()
	defer cancel()
	f.waitMetric("arbalestd_fleet_workers", 2, 5*time.Second)

	var crashes int64
	for _, b := range dracc.All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			tr := recordTrace(t, b.ID)
			want := oneShot(t, tr, "arbalest")
			faultinject.Enable("dist.worker.crash", faultinject.Fault{
				Err: errors.New("chaos: simulated worker death"), Count: 1,
			})
			v, err := f.svc.Submit("arbalest", tr)
			if err != nil {
				t.Fatal(err)
			}
			got := f.waitSettled(v.ID)
			crashes += faultinject.Fired("dist.worker.crash")
			if got.Status != service.StatusDone {
				t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
			}
			assertSameFindings(t, b.Name(), got.Result, want)
		})
	}
	if crashes == 0 {
		t.Fatalf("no worker crash ever fired; the sweep exercised nothing")
	}
	done := f.svc.Metrics().Snapshot().JobsCompleted
	if int(done) != len(dracc.All()) {
		t.Fatalf("jobs completed = %d, want exactly %d", done, len(dracc.All()))
	}
	if n := f.metric("arbalestd_fleet_jobs_rescheduled_total"); n < 1 {
		t.Fatalf("rescheduled = %v, want >= 1 across the sweep", n)
	}
}

// TestLeaseFencingRejectsZombie expires a silent worker's lease, completes
// the job through a second worker under a higher token, then lets the
// zombie wake up and write: its delayed checkpoint and result must bounce
// off the fencing guard (409, counted) and the terminal state must be the
// second worker's, recorded exactly once.
func TestLeaseFencingRejectsZombie(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := newFleet(t, nil, 150*time.Millisecond, 30*time.Second, false)

	// The zombie registers and takes the lease by hand, then goes silent.
	rawRegister(t, f.srv.URL, "zombie")
	v, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	grant := rawLease(t, f.srv.URL, "zombie", 2*time.Second)
	if grant == nil || grant.Job.ID != v.ID {
		t.Fatalf("zombie lease: %+v, want job %s", grant, v.ID)
	}
	if grant.Token != 1 {
		t.Fatalf("first token = %d, want 1", grant.Token)
	}

	// No heartbeats: the lease expires and the job is rescheduled.
	f.waitMetric("arbalestd_fleet_leases_expired_total", 1, 5*time.Second)

	// A live worker picks it up under token 2 and finishes.
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 1, 1, false)
	defer wg.Wait()
	defer cancel()
	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "second holder", got.Result, want)

	// The zombie wakes up and tries to write with its stale token.
	ck := &trace.Checkpoint{
		JobID:     v.ID,
		Tool:      "arbalest",
		NextEvent: 1,
		Events:    uint64(len(tr.Events)),
		Created:   time.Now(),
		State:     json.RawMessage(`{}`),
	}
	ckData, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ckURL := fmt.Sprintf("%s/v1/fleet/jobs/%s/checkpoint?worker=zombie&token=%d", f.srv.URL, v.ID, grant.Token)
	if code := rawPost(t, ckURL, "application/octet-stream", ckData); code != http.StatusConflict {
		t.Fatalf("zombie checkpoint: status %d, want 409", code)
	}
	stale, _ := json.Marshal(map[string]any{
		"worker": "zombie", "token": grant.Token,
		"result": json.RawMessage(`{"tool":"arbalest","issues":999}`),
	})
	resURL := f.srv.URL + "/v1/fleet/jobs/" + v.ID + "/result"
	if code := rawPost(t, resURL, "application/json", stale); code != http.StatusConflict {
		t.Fatalf("zombie result: status %d, want 409", code)
	}

	if n := f.metric("arbalestd_fleet_fenced_writes_total"); n < 2 {
		t.Fatalf("fenced writes = %v, want >= 2", n)
	}
	if done := f.svc.Metrics().Snapshot().JobsCompleted; done != 1 {
		t.Fatalf("jobs completed = %d, want exactly 1", done)
	}
	final, _ := f.svc.Job(v.ID)
	assertSameFindings(t, "after zombie writes", final.Result, want)
}

// TestHeartbeatPartitionReschedules severs a worker's heartbeats while a
// slow checkpoint holds its replay past the lease TTL: the coordinator
// expires the lease and reschedules; the partitioned worker abandons the
// job (its delayed checkpoint is fenced) and, once the partition heals,
// completes it under a fresh token.
func TestHeartbeatPartitionReschedules(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := newFleet(t, nil, 120*time.Millisecond, 30*time.Second, false)
	faultinject.Enable("dist.heartbeat", faultinject.Fault{Err: errors.New("chaos: partition")})
	faultinject.Enable("dist.worker.slow", faultinject.Fault{Delay: 600 * time.Millisecond, Count: 1})

	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 1, 1, true)
	defer wg.Wait()
	defer cancel()
	f.waitMetric("arbalestd_fleet_workers", 1, 5*time.Second)

	v, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	f.waitMetric("arbalestd_fleet_leases_expired_total", 1, 10*time.Second)
	faultinject.Disable("dist.heartbeat") // partition heals

	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "after partition", got.Result, want)
	if n := f.metric("arbalestd_fleet_jobs_rescheduled_total"); n < 1 {
		t.Fatalf("rescheduled = %v, want >= 1", n)
	}
	if done := f.svc.Metrics().Snapshot().JobsCompleted; done != 1 {
		t.Fatalf("jobs completed = %d, want exactly 1", done)
	}
}

// TestCoordinatorRestartTokensMonotone restarts the coordinator between a
// lease grant and the zombie's write: the fleet log must carry the fencing
// tokens across lives, so the next lease is issued under a strictly higher
// token and the old holder's result is still rejected.
func TestCoordinatorRestartTokensMonotone(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	dir := t.TempDir()
	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f1 := newFleet(t, jnl1, 2*time.Second, 5*time.Second, false)
	rawRegister(t, f1.srv.URL, "w-old")
	v, err := f1.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	grant1 := rawLease(t, f1.srv.URL, "w-old", 2*time.Second)
	if grant1 == nil || grant1.Token != 1 {
		t.Fatalf("first life grant: %+v, want token 1", grant1)
	}
	f1.close() // coordinator dies with the job leased

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f2 := newFleet(t, jnl2, 2*time.Second, 5*time.Second, true)

	// The recovered fleet log holds the job for re-lease (reconnect grace)
	// instead of stampeding it inline; a reconnecting worker gets it under
	// a strictly higher token.
	rawRegister(t, f2.srv.URL, "w-new")
	var grant2 *dist.LeaseGrant
	deadline := time.Now().Add(10 * time.Second)
	for grant2 == nil && time.Now().Before(deadline) {
		grant2 = rawLease(t, f2.srv.URL, "w-new", 500*time.Millisecond)
	}
	if grant2 == nil || grant2.Job.ID != v.ID {
		t.Fatalf("second life grant: %+v, want job %s", grant2, v.ID)
	}
	if grant2.Token <= grant1.Token {
		t.Fatalf("token did not stay monotone across restart: %d then %d", grant1.Token, grant2.Token)
	}

	// The first life's holder posts its result against the new life: fenced.
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	resURL := f2.srv.URL + "/v1/fleet/jobs/" + v.ID + "/result"
	stale, _ := json.Marshal(map[string]any{"worker": "w-old", "token": grant1.Token, "result": json.RawMessage(wantJSON)})
	if code := rawPost(t, resURL, "application/json", stale); code != http.StatusConflict {
		t.Fatalf("stale-token result: status %d, want 409", code)
	}

	// The current holder completes normally.
	fresh, _ := json.Marshal(map[string]any{"worker": "w-new", "token": grant2.Token, "result": json.RawMessage(wantJSON)})
	// Heartbeat first so the lease is still live after the polling above.
	hb, _ := json.Marshal(map[string]any{"worker": "w-new", "token": grant2.Token})
	if code := rawPost(t, f2.srv.URL+"/v1/fleet/jobs/"+v.ID+"/heartbeat", "application/json", hb); code != http.StatusNoContent {
		t.Fatalf("heartbeat: status %d, want 204", code)
	}
	if code := rawPost(t, resURL, "application/json", fresh); code != http.StatusNoContent {
		t.Fatalf("current-token result: status %d, want 204", code)
	}
	got := f2.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "across restart", got.Result, want)
	if n := f2.metric("arbalestd_fleet_fenced_writes_total"); n < 1 {
		t.Fatalf("fenced writes = %v, want >= 1", n)
	}
}

// TestZeroWorkersRunsInline: with no fleet at all the coordinator degrades
// to the single-process path and jobs still finish with identical findings.
func TestZeroWorkersRunsInline(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := newFleet(t, nil, 200*time.Millisecond, 200*time.Millisecond, false)
	v, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "inline degradation", got.Result, want)
	if n := f.metric("arbalestd_fleet_jobs_inline_total"); n < 1 {
		t.Fatalf("inline jobs = %v, want >= 1", n)
	}
}

// getTrace fetches the merged span tree at GET /v1/traces/{id}, or nil on
// 404.
func getTrace(t *testing.T, url, traceID string) *telemetry.Span {
	t.Helper()
	resp, err := http.Get(url + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d", traceID, resp.StatusCode)
	}
	var root telemetry.Span
	if err := json.NewDecoder(resp.Body).Decode(&root); err != nil {
		t.Fatal(err)
	}
	return &root
}

// spansNamed collects root's direct children with the given name.
func spansNamed(root *telemetry.Span, name string) []*telemetry.Span {
	var out []*telemetry.Span
	for _, c := range root.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// TestFleetTracePropagation is the tracing acceptance test: a job rescheduled
// across two workers by a crash-mid-epoch fault must read as ONE trace at
// GET /v1/traces/{id} — the client's trace id, the coordinator's job root,
// both lease grants (the crashed one closed with an error, the retry clean),
// both workers' fetch/restore/replay phase spans shipped over heartbeats,
// and the zombie's fenced write — and the federated fleet status must expose
// the same story in its counters and span-derived latency digest.
func TestFleetTracePropagation(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := newFleet(t, nil, 100*time.Millisecond, 30*time.Second, false)
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 2, 1, true)
	defer wg.Wait()
	defer cancel()
	f.waitMetric("arbalestd_fleet_workers", 2, 5*time.Second)

	// The first lease holder dies right after its first checkpoint posts —
	// after the span shipment that rides the same checkpoint, so the dead
	// worker's phases are already on the coordinator.
	faultinject.Enable("dist.worker.crash", faultinject.Fault{
		Err: errors.New("chaos: simulated worker death"), Count: 1,
	})

	// Submit with a client-minted traceparent: the whole fleet execution
	// must join the caller's trace.
	client := telemetry.NewTraceContext()
	v, _, err := f.svc.SubmitTrace(service.SubmitOptions{
		Tool: "arbalest", Traceparent: client.Traceparent(),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != client.TraceID {
		t.Fatalf("job joined trace %s, client sent %s", v.TraceID, client.TraceID)
	}
	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "traced crash-reschedule", got.Result, want)
	if faultinject.Fired("dist.worker.crash") == 0 {
		t.Fatal("worker crash never fired; nothing was rescheduled")
	}

	// The zombie wakes up: a checkpoint under the dead lease's token must be
	// fenced (409) and leave a visible mark in the trace.
	ck := &trace.Checkpoint{
		JobID: v.ID, Tool: "arbalest", NextEvent: 1,
		Events: uint64(len(tr.Events)), Created: time.Now(),
		State: json.RawMessage(`{}`),
	}
	ckData, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ckURL := fmt.Sprintf("%s/v1/fleet/jobs/%s/checkpoint?worker=w-zombie&token=1", f.srv.URL, v.ID)
	if code := rawPost(t, ckURL, "application/octet-stream", ckData); code != http.StatusConflict {
		t.Fatalf("zombie checkpoint: status %d, want 409", code)
	}

	// Everything above lands in one merged tree. The lease close and final
	// merge happen inside the result/expiry handlers the job settled
	// through, so the tree is complete by now — no polling.
	root := getTrace(t, f.srv.URL, client.TraceID)
	if root == nil {
		t.Fatalf("trace %s not found", client.TraceID)
	}
	if root.Name != "job" || root.TraceID != client.TraceID || root.ParentID != client.SpanID {
		t.Fatalf("root = %s trace %s parent %s; want job under client span %s",
			root.Name, root.TraceID, root.ParentID, client.SpanID)
	}
	var walk func(*telemetry.Span)
	walk = func(sp *telemetry.Span) {
		if sp.TraceID != client.TraceID {
			t.Errorf("span %s carries trace %s; the tree must be ONE trace %s", sp.Name, sp.TraceID, client.TraceID)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(root)

	leases := spansNamed(root, "lease")
	if len(leases) < 2 {
		t.Fatalf("%d lease span(s), want >= 2 (original + retry after crash)", len(leases))
	}
	workers := map[string]bool{}
	var failed, clean int
	for _, ls := range leases {
		workers[ls.Attrs["worker"]] = true
		if ls.Status == "error" {
			failed++
		} else if ls.Status == "ok" {
			clean++
		}
		ws := spansNamed(ls, "worker")
		if len(ws) != 1 {
			t.Fatalf("lease %s (worker %s): %d worker subtree(s), want 1", ls.SpanID, ls.Attrs["worker"], len(ws))
		}
		for _, phase := range []string{"fetch", "restore", "replay"} {
			if ws[0].Find(phase) == nil {
				t.Errorf("lease %s (worker %s): no %q span shipped", ls.SpanID, ls.Attrs["worker"], phase)
			}
		}
	}
	if len(workers) < 2 {
		t.Errorf("leases span workers %v, want two distinct holders", workers)
	}
	if failed < 1 || clean < 1 {
		t.Errorf("lease statuses: %d failed, %d clean; want the crashed lease marked error and the retry ok", failed, clean)
	}

	fenced := spansNamed(root, "fenced")
	if len(fenced) != 1 {
		t.Fatalf("%d fenced span(s), want exactly 1", len(fenced))
	}
	if fenced[0].Status != "error" || fenced[0].Attrs["op"] != "checkpoint" || fenced[0].Attrs["worker"] != "w-zombie" {
		t.Errorf("fenced span = status %s attrs %v", fenced[0].Status, fenced[0].Attrs)
	}

	// Federation: the fleet status endpoint aggregates the same execution.
	resp, err := http.Get(f.srv.URL + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	var st service.FleetStatus
	if derr := json.NewDecoder(resp.Body).Decode(&st); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if st.Role != "coordinator" {
		t.Errorf("fleet role = %q, want coordinator", st.Role)
	}
	if len(st.Workers) < 2 {
		t.Errorf("fleet status lists %d workers, want >= 2", len(st.Workers))
	}
	if st.Counters.FencedWrites < 1 || st.Counters.JobsRescheduled < 1 || st.Counters.LeasesExpired < 1 {
		t.Errorf("counters %+v missed the crash story", st.Counters)
	}
	if st.JobLatency == nil || st.JobLatency.Count < 1 || st.JobLatency.P99Nanos < st.JobLatency.P50Nanos {
		t.Errorf("span-derived job latency digest = %+v", st.JobLatency)
	}
}
