// Coordinator-mode admission: jobs wait in the service's one bounded queue
// until the fleet asks for them, so the queue bound (429), /readyz queue
// pressure, client deadlines and shutdown act under -role coordinator
// exactly as in standalone mode; and a leased run behaves like an inline
// one.
package dist_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/service"
)

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do sends one request to the fleet's listener and returns the status code
// and body.
func (f *fleet) do(method, path string, body io.Reader) (int, string) {
	f.t.Helper()
	req, err := http.NewRequest(method, f.srv.URL+path, body)
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// assertQueueBounded fills the one pool worker's queue of two and requires
// the next submission to bounce with ErrQueueFull, the HTTP path with 429,
// and /readyz to report the queue overloaded. busy waits until the first
// job has left the queue for the pool worker.
func assertQueueBounded(t *testing.T, f *fleet, busy func(id string) bool) []string {
	t.Helper()
	tr := recordTrace(t, 22)
	first, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pool worker to take "+first.ID, func() bool { return busy(first.ID) })
	ids := []string{first.ID}
	for i := 0; i < 2; i++ {
		v, err := f.svc.Submit("arbalest", tr)
		if err != nil {
			t.Fatalf("submission %d into a queue with room: %v", i+2, err)
		}
		ids = append(ids, v.ID)
	}
	if depth, capacity := f.svc.QueueFullness(); depth != 2 || capacity != 2 {
		t.Fatalf("queue = %d/%d, want 2/2", depth, capacity)
	}
	if _, err := f.svc.Submit("arbalest", tr); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("submission into a full queue: err %v, want ErrQueueFull", err)
	}
	var body strings.Builder
	if err := tr.Save(&body); err != nil {
		t.Fatal(err)
	}
	if code, msg := f.do(http.MethodPost, "/v1/jobs?tool=arbalest", strings.NewReader(body.String())); code != http.StatusTooManyRequests {
		t.Fatalf("POST /v1/jobs into a full queue: %d %s, want 429", code, msg)
	}
	code, msg := f.do(http.MethodGet, "/readyz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(msg, "queue overloaded") {
		t.Fatalf("/readyz with a full queue: %d %s, want 503 queue overloaded", code, msg)
	}
	return ids
}

// TestCoordinatorQueueBoundedWithSilentWorker: a registered worker that
// never polls takes no job, so the one pool worker holds the first job for
// a lease and the rest wait in the service's queue, under its bound.
func TestCoordinatorQueueBoundedWithSilentWorker(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	f := startFleet(t, service.Config{Workers: 1, QueueSize: 2},
		dist.CoordinatorConfig{LeaseTTL: 5 * time.Second, WorkerTTL: 30 * time.Second}, false)
	rawRegister(t, f.srv.URL, "silent")
	assertQueueBounded(t, f, func(string) bool { return f.coord.FleetSnapshot().Pending == 1 })
	if st := f.svc.FleetStatus(); st.Pending != 1 || st.Leased != 0 {
		t.Errorf("fleet status pending %d leased %d, want 1 held and 0 leased", st.Pending, st.Leased)
	}
}

// TestCoordinatorQueueBoundedWithoutWorkers: with no worker at all the one
// pool worker runs the first job itself (slowed by worker.slow), and the
// rest wait in the service's queue, under its bound; then all drain inline.
func TestCoordinatorQueueBoundedWithoutWorkers(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Enable("worker.slow", faultinject.Fault{Delay: time.Second, Count: 1})
	f := startFleet(t, service.Config{Workers: 1, QueueSize: 2},
		dist.CoordinatorConfig{LeaseTTL: 200 * time.Millisecond, WorkerTTL: 200 * time.Millisecond}, false)
	ids := assertQueueBounded(t, f, func(id string) bool {
		v, _ := f.svc.Job(id)
		return v.Status == service.StatusRunning
	})
	for _, id := range ids {
		if got := f.waitSettled(id); got.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, got.Status, got.Error)
		}
	}
	if n := f.metric("arbalestd_fleet_jobs_inline_total"); n != float64(len(ids)) {
		t.Fatalf("inline jobs = %v, want %d", n, len(ids))
	}
}

// TestCoordinatorShedsExpiredDeadline: a job whose client deadline passes
// while it waits behind a busy fleet is shed when the pool reaches it, and
// never leased.
func TestCoordinatorShedsExpiredDeadline(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	f := startFleet(t, service.Config{Workers: 1, QueueSize: 8},
		dist.CoordinatorConfig{LeaseTTL: 5 * time.Second, WorkerTTL: 30 * time.Second}, false)
	rawRegister(t, f.srv.URL, "busy")

	first, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pool worker to hold "+first.ID, func() bool { return f.coord.FleetSnapshot().Pending == 1 })
	late, _, err := f.svc.SubmitTrace(service.SubmitOptions{
		Tool: "arbalest", Deadline: time.Now().Add(20 * time.Millisecond),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the deadline passes in the queue

	if grant := rawLease(t, f.srv.URL, "busy", 2*time.Second); grant == nil || grant.Job.ID != first.ID {
		t.Fatalf("first lease: %+v, want job %s", grant, first.ID)
	}
	if grant := rawLease(t, f.srv.URL, "busy", 200*time.Millisecond); grant != nil {
		t.Fatalf("job %s leased after its deadline passed in the queue", grant.Job.ID)
	}
	got := f.waitSettled(late.ID)
	if got.Status != service.StatusFailed || !strings.Contains(got.Error, "deadline expired") {
		t.Fatalf("late job: status %s (%s), want failed with the deadline message", got.Status, got.Error)
	}
	if n := f.metric(`arbalestd_tenant_shed_total{tenant="default",reason="deadline"}`); n != 1 {
		t.Fatalf("deadline sheds = %v, want 1", n)
	}
	if n := f.metric("arbalestd_fleet_leases_granted_total"); n != 1 {
		t.Fatalf("leases granted = %v, want 1", n)
	}
}

// TestCoordinatorShedsDeadlineAtGrant: a job whose client deadline passes
// while a pool worker holds it for a lease is shed when a worker polls,
// exactly as dequeue sheds it, and never leased.
func TestCoordinatorShedsDeadlineAtGrant(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	f := startFleet(t, service.Config{Workers: 1, QueueSize: 8},
		dist.CoordinatorConfig{LeaseTTL: 5 * time.Second, WorkerTTL: 30 * time.Second}, false)
	rawRegister(t, f.srv.URL, "silent")

	// The pool worker is free, so it takes the job at once and holds it
	// for a lease; the deadline passes while it is held.
	late, _, err := f.svc.SubmitTrace(service.SubmitOptions{
		Tool: "arbalest", Deadline: time.Now().Add(20 * time.Millisecond),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	if grant := rawLease(t, f.srv.URL, "silent", 200*time.Millisecond); grant != nil {
		t.Fatalf("job %s leased after its deadline passed while held", grant.Job.ID)
	}
	got := f.waitSettled(late.ID)
	if got.Status != service.StatusFailed || !strings.Contains(got.Error, "deadline expired") {
		t.Fatalf("late job: status %s (%s), want failed with the deadline message", got.Status, got.Error)
	}
	if n := f.metric(`arbalestd_tenant_shed_total{tenant="default",reason="deadline"}`); n != 1 {
		t.Fatalf("deadline sheds = %v, want 1", n)
	}
}

// TestFleetWorkerRunsLikeInline: a leased run gets what an inline run gets.
// The lease carries the daemon's analyzer-stats setting, so the remote
// result has a stats block that feeds the /metrics VSM counters; and an
// analyzer panic on the worker (the worker.replay fault point) fails only
// that job, with the panic in its error, while the same worker goes on to
// the next lease.
func TestFleetWorkerRunsLikeInline(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := startFleet(t, service.Config{Workers: 2, QueueSize: 8, CheckpointEvery: 1, AnalyzerStats: true},
		dist.CoordinatorConfig{LeaseTTL: 500 * time.Millisecond, WorkerTTL: 30 * time.Second}, false)
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 1, 1, false)
	defer wg.Wait()
	defer cancel()
	f.waitMetric("arbalestd_fleet_workers", 1, 5*time.Second)

	faultinject.Enable("worker.replay", faultinject.Fault{Panic: "injected analyzer crash", Count: 1})
	crashed, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got := f.waitSettled(crashed.ID)
	if got.Status != service.StatusFailed || !strings.Contains(got.Error, "analyzer panicked: injected analyzer crash") {
		t.Fatalf("panicked job: status %s (%s), want failed with the panic", got.Status, got.Error)
	}

	next, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got = f.waitSettled(next.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job after the panic: status %s (%s)", got.Status, got.Error)
	}
	assertSameFindings(t, "remote with stats", got.Result, want)
	if got.Result.Stats == nil || len(got.Result.Stats.VSMTransitions) == 0 {
		t.Fatalf("remote result has no analyzer stats: %+v", got.Result.Stats)
	}
	if n := f.metric("arbalestd_vsm_transitions_total"); n <= 0 {
		t.Fatalf("arbalestd_vsm_transitions_total = %v, want > 0 from the remote result", n)
	}
	if n := f.metric("arbalestd_fleet_jobs_inline_total"); n != 0 {
		t.Fatalf("inline jobs = %v, want both jobs leased", n)
	}
	if n := f.metric("arbalestd_fleet_leases_granted_total"); n != 2 {
		t.Fatalf("leases granted = %v, want 2 (the panic is not retried elsewhere)", n)
	}
}

// TestFleetWorkerHonorsReplayTimeout: the daemon's replay timeout bounds a
// leased replay as it bounds an inline one (TestReplayTimeout). Under a 1 ns
// bound the leased job settles failed with the deadline in its error, and
// the worker posts that failure rather than abandoning the lease: one lease,
// none expired, nothing run inline.
func TestFleetWorkerHonorsReplayTimeout(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)

	f := startFleet(t, service.Config{Workers: 2, QueueSize: 8, ReplayTimeout: time.Nanosecond},
		dist.CoordinatorConfig{LeaseTTL: 5 * time.Second, WorkerTTL: 30 * time.Second}, false)
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
	if got.Status != service.StatusFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("leased job under a 1ns timeout: status %s (%s), want failed with the deadline", got.Status, got.Error)
	}
	if n := f.metric("arbalestd_fleet_jobs_inline_total"); n != 0 {
		t.Fatalf("inline jobs = %v, want the job leased", n)
	}
	if n := f.metric("arbalestd_fleet_leases_granted_total"); n != 1 {
		t.Fatalf("leases granted = %v, want 1", n)
	}
	if n := f.metric("arbalestd_fleet_leases_expired_total"); n != 0 {
		t.Fatalf("leases expired = %v, want 0: the failure is posted, not abandoned", n)
	}
}

// TestCoordinatorShutdownLeavesQueuedJobsJournaled: a coordinator with a
// worker registered does not wait for it at shutdown. The job a pool worker
// holds for a lease and the jobs still queued stay journaled, and the next
// life runs them: held for the reconnect grace, then in its own pool, since
// no worker comes back.
func TestCoordinatorShutdownLeavesQueuedJobsJournaled(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")
	dir := t.TempDir()

	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f1 := startFleet(t, service.Config{Workers: 1, QueueSize: 8, Journal: jnl1},
		dist.CoordinatorConfig{LeaseTTL: 5 * time.Second, WorkerTTL: 30 * time.Second}, false)
	rawRegister(t, f1.srv.URL, "silent")
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := f1.svc.Submit("arbalest", tr)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitFor(t, "the pool worker to hold a job", func() bool { return f1.coord.FleetSnapshot().Pending == 1 })
	start := time.Now()
	f1.close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %v waiting on a silent worker", d)
	}
	for _, id := range ids {
		if v, _ := f1.svc.Job(id); v.Status != service.StatusPending {
			t.Fatalf("job %s is %s after shutdown, want pending", id, v.Status)
		}
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f2 := startFleet(t, service.Config{Workers: 1, QueueSize: 8, Journal: jnl2},
		dist.CoordinatorConfig{LeaseTTL: 200 * time.Millisecond, WorkerTTL: 200 * time.Millisecond}, true)
	for _, id := range ids {
		got := f2.waitSettled(id)
		if got.Status != service.StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, got.Status, got.Error)
		}
		assertSameFindings(t, "next life "+id, got.Result, want)
	}
	if n := f2.metric("arbalestd_fleet_jobs_inline_total"); n != float64(len(ids)) {
		t.Fatalf("inline jobs = %v, want %d", n, len(ids))
	}
}
