package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/stream"
)

// newJournal opens a journal in a fresh temp dir.
func newJournal(t *testing.T) *journal.Journal {
	t.Helper()
	jnl, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return jnl
}

// waitAllTerminal polls until every job in the service is done or failed
// and the count matches want.
func waitAllTerminal(t *testing.T, s *Service, want int) []JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		views := s.Jobs()
		terminal := 0
		for _, v := range views {
			if v.Status == StatusDone || v.Status == StatusFailed {
				terminal++
			}
		}
		if len(views) >= want && terminal == len(views) {
			return views
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("jobs never all settled (want %d)", want)
	return nil
}

// TestWorkerPanicIsolated: an analyzer panic fails its own job with the
// panic value and a stack fragment, while the worker survives and
// processes the next job.
func TestWorkerPanicIsolated(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)

	s := New(Config{Workers: 1, QueueSize: 8})
	s.Start()

	faultinject.Enable("worker.replay", faultinject.Fault{Panic: "injected analyzer crash", Count: 1})
	v1, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got1 := waitSettled(t, s, v1.ID)
	if got1.Status != StatusFailed {
		t.Fatalf("panicked job status %q, want failed", got1.Status)
	}
	if !strings.Contains(got1.Error, "analyzer panicked: injected analyzer crash") {
		t.Errorf("error %q does not carry the panic value", got1.Error)
	}
	if !strings.Contains(got1.Error, "goroutine") {
		t.Errorf("error %q does not carry a stack fragment", got1.Error)
	}

	// The pool must be intact: the same single worker runs the next job.
	v2, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got2 := waitSettled(t, s, v2.ID)
	if got2.Status != StatusDone {
		t.Fatalf("job after panic: %q (error %q), want done", got2.Status, got2.Error)
	}
	shutdownOrFail(t, s)

	m := s.Metrics().Snapshot()
	if m.JobsPanicked != 1 || m.JobsFailed != 1 || m.JobsCompleted != 1 {
		t.Errorf("metrics %+v, want 1 panicked, 1 failed, 1 completed", m)
	}
}

// TestJournalRecoveryReplaysOnce is the kill/restart scenario: jobs
// journaled by one service life are re-enqueued exactly once by the next,
// and a third life sees only terminal history.
func TestJournalRecoveryReplaysOnce(t *testing.T) {
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")
	dir := t.TempDir()

	// Life 1 accepts 5 jobs but is "killed" before any worker starts.
	jnl1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl1})
	const n = 5
	for i := 0; i < n; i++ {
		if _, _, err := s1.SubmitKeyed("arbalest", fmt.Sprintf("key-%d", i), tr); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// s1 is abandoned here: no Start, no Shutdown — a crash.

	// Life 2 recovers the spool and runs the backlog.
	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, QueueSize: 8, Journal: jnl2})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != n {
		t.Fatalf("recovered %d jobs, want %d", requeued, n)
	}
	s2.Start()
	views := waitAllTerminal(t, s2, n)
	seen := map[string]bool{}
	for _, v := range views {
		if seen[v.ID] {
			t.Errorf("job %s appears twice after recovery", v.ID)
		}
		seen[v.ID] = true
		if v.Status != StatusDone {
			t.Errorf("recovered job %s: %q (error %q)", v.ID, v.Status, v.Error)
			continue
		}
		if v.Result == nil || v.Result.Issues != want.Issues {
			t.Errorf("recovered job %s result %+v, want %d issues", v.ID, v.Result, want.Issues)
		}
	}
	shutdownOrFail(t, s2)
	if m := s2.Metrics().Snapshot(); m.JobsRecovered != n || m.JobsCompleted != n {
		t.Errorf("metrics %+v, want %d recovered and completed", m, n)
	}

	// Life 3 sees only terminal history: nothing to re-run, results and
	// idempotency keys intact.
	jnl3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{Workers: 1, QueueSize: 8, Journal: jnl3})
	requeued, err = s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 0 {
		t.Fatalf("third life re-enqueued %d jobs, want 0", requeued)
	}
	hist := s3.Jobs()
	if len(hist) != n {
		t.Fatalf("third life sees %d jobs, want %d", len(hist), n)
	}
	for _, v := range hist {
		if v.Status != StatusDone || v.Result == nil || v.Result.Issues != want.Issues {
			t.Errorf("history job %s: %q result %+v", v.ID, v.Status, v.Result)
		}
	}
	// A duplicate of a journaled key is deduplicated even after restart.
	dupView, duplicate, err := s3.SubmitKeyed("arbalest", "key-3", tr)
	if err != nil || !duplicate {
		t.Fatalf("resubmit of journaled key: dup=%v err=%v, want dup", duplicate, err)
	}
	if dupView.Status != StatusDone {
		t.Errorf("deduplicated view %q, want the finished original", dupView.Status)
	}
}

// TestRecoveryAfterRunningMark: a job that crashed mid-run (last journal
// state "running") is re-enqueued and re-analyzed from scratch.
func TestRecoveryAfterRunningMark(t *testing.T) {
	tr := recordTrace(t, 22)
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Journal: jnl})
	v, err := s1.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the worker dying mid-job: mark running, never terminal.
	if err := jnl.Mark(v.ID, journal.StatusRunning, "", nil); err != nil {
		t.Fatal(err)
	}

	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Journal: jnl2})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 {
		t.Fatalf("requeued %d, want 1", requeued)
	}
	s2.Start()
	got := waitSettled(t, s2, v.ID)
	if got.Status != StatusDone {
		t.Errorf("re-run job %q (error %q), want done", got.Status, got.Error)
	}
	shutdownOrFail(t, s2)
}

// TestRetentionGCEvictsOldestFinished: the jobs map, listing, and spool
// stay bounded by MaxFinishedJobs, evicting oldest-finished first.
func TestRetentionGCEvictsOldestFinished(t *testing.T) {
	tr := recordTrace(t, 1)
	jnl := newJournal(t)
	s := New(Config{Workers: 1, QueueSize: 32, Journal: jnl, MaxFinishedJobs: 3})
	s.Start()

	const n = 10
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		v, err := s.Submit("arbalest", tr)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	shutdownOrFail(t, s) // drains all 10

	views := s.Jobs()
	if len(views) != 3 {
		t.Fatalf("after GC: %d jobs retained, want 3", len(views))
	}
	// With one worker, finish order == submission order: the survivors
	// are the last three submitted.
	for i, v := range views {
		if want := ids[n-3+i]; v.ID != want {
			t.Errorf("retained[%d] = %s, want %s", i, v.ID, want)
		}
	}
	if m := s.Metrics().Snapshot(); m.JobsEvicted != n-3 {
		t.Errorf("jobsEvicted %d, want %d", m.JobsEvicted, n-3)
	}
	// Evicted jobs' spool files are gone too: a fresh recovery sees only
	// the retained three.
	jnl2, err := journal.Open(jnl.Dir())
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, errs := jnl2.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if len(recovered) != 3 {
		t.Errorf("spool holds %d jobs after GC, want 3", len(recovered))
	}
}

// TestRetentionGCByAge: terminal jobs older than MaxJobAge are evicted.
func TestRetentionGCByAge(t *testing.T) {
	tr := recordTrace(t, 1)
	s := New(Config{Workers: 1, MaxFinishedJobs: -1, MaxJobAge: time.Nanosecond})
	s.Start()
	v, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, s, v.ID)
	shutdownOrFail(t, s)
	time.Sleep(time.Millisecond) // comfortably past MaxJobAge
	if evicted := s.GC(); evicted != 1 {
		t.Fatalf("GC evicted %d, want 1", evicted)
	}
	if _, ok := s.Job(v.ID); ok {
		t.Error("aged-out job still present")
	}
}

// TestRetentionCoversJobsAndSessions: one retention bound covers finished
// jobs and stream sessions together. Past MaxFinishedJobs they are evicted
// oldest-finished first, whatever their kind or admission order, each with
// its .trace, .meta and .ckpt files and its trace-store entry; with
// MaxJobAge set, a finished session older than the limit is evicted too.
func TestRetentionCoversJobsAndSessions(t *testing.T) {
	tr := recordTrace(t, 22)
	body := frameStreamBody(t, tr, 0)
	open := func(t *testing.T, s *Service) stream.View {
		t.Helper()
		v, err := s.OpenStream("arbalest", "", "")
		if err != nil {
			t.Fatal(err)
		}
		sess, _ := s.Session(v.ID)
		if err := sess.StartIngest(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Feed(body); err != nil {
			t.Fatal(err)
		}
		sess.EndIngest()
		return v
	}
	closeStream := func(t *testing.T, s *Service, id string) {
		t.Helper()
		if _, err := s.CloseStream(id); err != nil {
			t.Fatal(err)
		}
	}
	evicted := func(t *testing.T, s *Service, dir, id, traceID string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, isJob := s.Job(id)
			_, isStream := s.Stream(id)
			if !isJob && !isStream {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s was not evicted", id)
			}
			time.Sleep(time.Millisecond)
		}
		for _, ext := range []string{".trace", ".meta", ".ckpt"} {
			if _, err := os.Stat(filepath.Join(dir, id+ext)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s%s after eviction: %v", id, ext, err)
			}
		}
		if traceID == "" || s.Traces().Get(traceID) != nil {
			t.Errorf("%s: trace %q still in the store after eviction", id, traceID)
		}
	}
	retained := func(t *testing.T, s *Service, ids ...string) {
		t.Helper()
		for _, id := range ids {
			_, isJob := s.Job(id)
			_, isStream := s.Stream(id)
			if !isJob && !isStream {
				t.Errorf("%s was evicted, want it retained", id)
			}
		}
	}

	t.Run("count", func(t *testing.T) {
		jnl := newJournal(t)
		s := New(Config{Workers: 1, Journal: jnl, CheckpointEvery: 64, MaxFinishedJobs: 2})
		s.Start()
		defer shutdownOrFail(t, s)
		// The session is admitted before the job but finishes after it.
		a := open(t, s)
		j, err := s.Submit("arbalest", tr)
		if err != nil {
			t.Fatal(err)
		}
		j = waitSettled(t, s, j.ID)
		closeStream(t, s, a.ID)
		b := open(t, s)
		closeStream(t, s, b.ID)
		evicted(t, s, jnl.Dir(), j.ID, j.TraceID)
		retained(t, s, a.ID, b.ID)

		k, err := s.Submit("arbalest", tr)
		if err != nil {
			t.Fatal(err)
		}
		waitSettled(t, s, k.ID)
		evicted(t, s, jnl.Dir(), a.ID, a.TraceID)
		retained(t, s, b.ID, k.ID)
		if got := s.Metrics().Snapshot().JobsEvicted; got != 2 {
			t.Errorf("JobsEvicted = %d, want 2", got)
		}
	})

	t.Run("age", func(t *testing.T) {
		jnl := newJournal(t)
		s := New(Config{Workers: 1, Journal: jnl, MaxFinishedJobs: -1, MaxJobAge: time.Nanosecond})
		a := open(t, s)
		closeStream(t, s, a.ID)
		time.Sleep(time.Millisecond) // comfortably past MaxJobAge
		if n := s.GC(); n != 1 {
			t.Fatalf("GC evicted %d, want the aged-out session", n)
		}
		evicted(t, s, jnl.Dir(), a.ID, a.TraceID)
	})
}

// TestIdempotentSubmitHTTP: the same Idempotency-Key on a second POST
// returns the original job (200, not a second 202) and nothing new runs.
func TestIdempotentSubmitHTTP(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{Workers: 1})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func() (*http.Response, JobView) {
		t.Helper()
		var body strings.Builder
		if err := tr.Save(&body); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs?tool=arbalest", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(retry.IdempotencyHeader, "upload-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, decodeView(t, resp)
	}

	resp1, v1 := post()
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: %d, want 202", resp1.StatusCode)
	}
	resp2, v2 := post()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("duplicate POST: %d, want 200", resp2.StatusCode)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("duplicate POST missing Idempotency-Replayed header")
	}
	if v1.ID != v2.ID {
		t.Errorf("duplicate created a second job: %s vs %s", v1.ID, v2.ID)
	}
	waitSettled(t, s, v1.ID)
	shutdownOrFail(t, s)
	m := s.Metrics().Snapshot()
	if m.JobsAccepted != 1 || m.JobsDeduplicated != 1 {
		t.Errorf("metrics %+v, want 1 accepted, 1 deduplicated", m)
	}
}

// TestHealthAndReadiness: /healthz flips to 503 once shutdown begins;
// /readyz degrades at >=90% queue fullness.
func TestHealthAndReadiness(t *testing.T) {
	tr := recordTrace(t, 1)
	s := New(Config{Workers: 1, QueueSize: 10})
	release := make(chan struct{})
	var once sync.Once
	s.testHookRunning = func(string) {
		once.Do(func() { <-release })
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz idle: %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz idle: %d, want 200", got)
	}

	// One job occupies the held worker, nine fill the queue to 90%.
	for i := 0; i < 10; i++ {
		if _, err := s.Submit("arbalest", tr); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz at 90%% queue: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz under load: %d, want 200 (still alive)", got)
	}

	close(release)
	shutdownOrFail(t, s)
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown: %d, want 503", got)
	}
}

// TestMarkFailureTolerated: a journal failure on a lifecycle mark is
// logged and counted, but the job still completes.
func TestMarkFailureTolerated(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 1)
	s := New(Config{Workers: 1, Journal: newJournal(t)})
	s.Start()
	faultinject.Enable("journal.mark", faultinject.Fault{Err: errors.New("disk detached")})
	v, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got := waitSettled(t, s, v.ID)
	if got.Status != StatusDone {
		t.Fatalf("job %q (error %q), want done despite mark failures", got.Status, got.Error)
	}
	shutdownOrFail(t, s)
	if m := s.Metrics().Snapshot(); m.JournalErrors == 0 {
		t.Error("journal mark failures were not counted")
	}
}

// TestChaosFaultInjection is the PR's acceptance scenario: 200 concurrent
// submissions against a daemon with journal-write errors, fsync delays,
// analyzer panics, and slow workers injected at >=10% rates. Every
// accepted job must reach a terminal state exactly once; a simulated
// crash (a new Service over the same spool) must recover all non-terminal
// jobs without duplication.
func TestChaosFaultInjection(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Seed(20260805)
	tr := recordTrace(t, 22)
	dir := t.TempDir()

	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// CheckpointEvery runs the full durability machinery under the same
	// chaos: checkpoint writes that fail at 10% are non-fatal by design, so
	// every job must still reach a terminal state exactly once.
	s := New(Config{Workers: 8, QueueSize: 256, Journal: jnl, MaxFinishedJobs: -1,
		CheckpointEvery: 1024})
	s.Start()

	faultinject.Enable("journal.append", faultinject.Fault{Err: errors.New("chaos: spool write error"), Prob: 0.15})
	faultinject.Enable("journal.fsync", faultinject.Fault{Delay: 100 * time.Microsecond, Prob: 0.20})
	faultinject.Enable("journal.checkpoint", faultinject.Fault{Err: errors.New("chaos: checkpoint write error"), Prob: 0.10})
	faultinject.Enable("worker.replay", faultinject.Fault{Panic: "chaos: injected analyzer crash", Prob: 0.12})
	faultinject.Enable("worker.slow", faultinject.Fault{Delay: 2 * time.Millisecond, Prob: 0.15})

	const n = 200
	var (
		mu       sync.Mutex
		accepted = make(map[string]string) // idempotency key -> job id
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("chaos-%d", i)
			// A client retry loop: same key every attempt, so a retried
			// accept cannot double-enqueue.
			for attempt := 0; attempt < 100; attempt++ {
				view, _, err := s.SubmitKeyed("arbalest", key, tr)
				if err == nil {
					mu.Lock()
					if prev, dup := accepted[key]; dup && prev != view.ID {
						t.Errorf("key %s accepted as both %s and %s", key, prev, view.ID)
					}
					accepted[key] = view.ID
					mu.Unlock()
					return
				}
				if errors.Is(err, ErrJournal) || errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				t.Errorf("submission %d: unexpected error %v", i, err)
				return
			}
			t.Errorf("submission %d: never accepted", i)
		}(i)
	}
	wg.Wait()
	if len(accepted) != n {
		t.Fatalf("accepted %d submissions, want %d", len(accepted), n)
	}

	views := waitAllTerminal(t, s, n)
	if len(views) != n {
		t.Fatalf("daemon holds %d jobs, want %d", len(views), n)
	}
	seen := make(map[string]int)
	var panicked int
	for _, v := range views {
		seen[v.ID]++
		if v.Status == StatusFailed && strings.Contains(v.Error, "analyzer panicked") {
			panicked++
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("job %s reached a terminal state %d times", id, c)
		}
	}
	for key, id := range accepted {
		if seen[id] != 1 {
			t.Errorf("accepted job %s (key %s) is missing from the terminal set", id, key)
		}
	}
	if panicked == 0 {
		t.Error("chaos run injected no analyzer panics; fault wiring is broken")
	}
	shutdownOrFail(t, s) // drains and flushes every terminal journal mark

	m := s.Metrics().Snapshot()
	if m.JobsAccepted != n || m.JobsCompleted+m.JobsFailed != n {
		t.Errorf("metrics %+v: accepted/terminal counts do not balance at %d", m, n)
	}
	if m.JobsPanicked == 0 || m.JournalErrors == 0 {
		t.Errorf("metrics %+v: expected panics and journal errors under chaos", m)
	}
	if m.CheckpointsWritten == 0 {
		t.Errorf("metrics %+v: checkpointing never ran under chaos", m)
	}

	// Crash simulation part 1: a new life over the same spool finds the
	// whole history terminal — nothing is re-run, nothing duplicated.
	faultinject.Reset()
	jnl2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 4, QueueSize: 64, Journal: jnl2, MaxFinishedJobs: -1})
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 0 {
		t.Fatalf("clean-history recovery re-enqueued %d jobs, want 0", requeued)
	}
	if got := len(s2.Jobs()); got != n {
		t.Fatalf("recovered history holds %d jobs, want %d", got, n)
	}

	// Crash simulation part 2: accept fresh jobs, then "crash" before any
	// worker runs (s2 is never started). The next life must recover all
	// of them, exactly once each.
	const k = 25
	crashKeys := make(map[string]string, k)
	for i := 0; i < k; i++ {
		key := fmt.Sprintf("crash-%d", i)
		view, _, err := s2.SubmitKeyed("arbalest", key, tr)
		if err != nil {
			t.Fatalf("crash-phase submit %d: %v", i, err)
		}
		crashKeys[key] = view.ID
	}

	// The crash also corrupts one job's spooled trace (a bit flip, as bad
	// sectors do). CRC framing must confine the damage to that one job:
	// recovery skips it with a per-job error and re-enqueues the rest.
	corruptID := crashKeys["crash-0"]
	tracePath := filepath.Join(dir, corruptID+".trace")
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(tracePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	jnl3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{Workers: 4, QueueSize: 8, Journal: jnl3, MaxFinishedJobs: -1})
	requeued, err = s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != k-1 {
		t.Fatalf("post-crash recovery re-enqueued %d jobs, want %d (one corrupt)", requeued, k-1)
	}
	if m := s3.Metrics().Snapshot(); m.JournalErrors == 0 {
		t.Errorf("metrics %+v: corrupted spool trace not reported", m)
	}
	s3.Start()
	all := waitAllTerminal(t, s3, n+k-1)
	if len(all) != n+k-1 {
		t.Fatalf("final history holds %d jobs, want %d", len(all), n+k-1)
	}
	finalSeen := make(map[string]int)
	for _, v := range all {
		finalSeen[v.ID]++
	}
	for key, id := range crashKeys {
		if id == corruptID {
			if finalSeen[id] != 0 {
				t.Errorf("corrupted job %s resurfaced %d times", id, finalSeen[id])
			}
			continue
		}
		if finalSeen[id] != 1 {
			t.Errorf("crashed job %s (key %s) seen %d times after recovery", id, key, finalSeen[id])
		}
	}
	shutdownOrFail(t, s3)
	m3 := s3.Metrics().Snapshot()
	if m3.JobsRecovered != k-1 || m3.JobsCompleted+m3.JobsFailed != k-1 {
		t.Errorf("recovery metrics %+v, want %d recovered and run exactly once", m3, k-1)
	}
}
