package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dracc"
	"repro/internal/faultinject"
	"repro/internal/omp"
	"repro/internal/tools"
	"repro/internal/trace"
)

// recordTrace executes DRACC benchmark id under a recorder with the same
// runtime configuration the one-shot harness uses for ARBALEST, and returns
// the trace.
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

// oneShot replays tr through a fresh analyzer the way the CLI's
// -replay-trace mode does, and returns the summary daemons must match.
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

// waitSettled polls until the job reaches done or failed.
func waitSettled(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return JobView{}
}

func shutdownOrFail(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// postTrace submits tr to the daemon URL and returns the HTTP response.
func postTrace(t *testing.T, url, toolName string, tr *trace.Trace) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs?tool="+toolName, "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// TestJobLifecycle: a job moves pending -> running -> done, with timestamps
// and a result attached.
func TestJobLifecycle(t *testing.T) {
	tr := recordTrace(t, 22)

	s := New(Config{Workers: 1, QueueSize: 4})
	running := make(chan string)
	release := make(chan struct{})
	s.testHookRunning = func(id string) {
		running <- id
		<-release
	}
	s.Start()

	view, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if view.Status != StatusPending {
		t.Errorf("at submit: status %q, want %q", view.Status, StatusPending)
	}

	id := <-running
	if id != view.ID {
		t.Errorf("worker picked %q, want %q", id, view.ID)
	}
	if v, _ := s.Job(view.ID); v.Status != StatusRunning {
		t.Errorf("while in worker: status %q, want %q", v.Status, StatusRunning)
	}
	close(release)

	done := waitSettled(t, s, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("settled as %q (error %q), want %q", done.Status, done.Error, StatusDone)
	}
	if done.Started == nil || done.Finished == nil {
		t.Error("done job missing started/finished timestamps")
	}
	if done.Result == nil || done.Result.Issues == 0 {
		t.Errorf("DRACC 22 result %+v, want issues > 0", done.Result)
	}
	if done.Events != len(tr.Events) {
		t.Errorf("events %d, want %d", done.Events, len(tr.Events))
	}
	shutdownOrFail(t, s)
	if got := s.Metrics().Snapshot(); got.JobsAccepted != 1 || got.JobsCompleted != 1 || got.JobsFailed != 0 {
		t.Errorf("metrics %+v, want 1 accepted, 1 completed, 0 failed", got)
	}
}

// TestQueueBackpressure: with one worker held and the queue full, Submit
// fails fast with ErrQueueFull and the HTTP API returns 429.
func TestQueueBackpressure(t *testing.T) {
	tr := recordTrace(t, 1)

	s := New(Config{Workers: 1, QueueSize: 1})
	running := make(chan string)
	release := make(chan struct{})
	var once sync.Once
	s.testHookRunning = func(id string) {
		once.Do(func() {
			running <- id
			<-release
		})
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Job 1 occupies the worker; job 2 fills the one queue slot.
	if _, err := s.Submit("arbalest", tr); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-running
	if _, err := s.Submit("arbalest", tr); err != nil {
		t.Fatalf("submit 2: %v", err)
	}

	if _, err := s.Submit("arbalest", tr); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit 3: err %v, want ErrQueueFull", err)
	}
	resp := postTrace(t, srv.URL, "arbalest", tr)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("POST on full queue: status %d, want 429", resp.StatusCode)
	}
	if got := s.Metrics().Snapshot(); got.JobsRejected != 2 {
		t.Errorf("jobsRejected %d, want 2", got.JobsRejected)
	}
	if got := s.Metrics().Snapshot(); got.QueueDepth != 1 {
		t.Errorf("queueDepth %d, want 1", got.QueueDepth)
	}

	close(release)
	shutdownOrFail(t, s)
}

// TestReplayTimeout: a job whose replay outlives ReplayTimeout is canceled
// and recorded as failed with a deadline error.
func TestReplayTimeout(t *testing.T) {
	tr := recordTrace(t, 22)

	s := New(Config{Workers: 1, ReplayTimeout: time.Nanosecond})
	s.Start()
	view, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := waitSettled(t, s, view.ID)
	if done.Status != StatusFailed {
		t.Fatalf("status %q, want %q", done.Status, StatusFailed)
	}
	if !strings.Contains(done.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("error %q does not mention the deadline", done.Error)
	}
	shutdownOrFail(t, s)
	if got := s.Metrics().Snapshot(); got.JobsFailed != 1 || got.JobsCompleted != 0 {
		t.Errorf("metrics %+v, want 1 failed, 0 completed", got)
	}
}

// TestReplayTimeoutBoundsStalledReplay: the replay timeout starts before
// the worker.replay fault point and does not wait for a replay that has not
// returned. A replay held 3 s there under a 150 ms bound fails within a
// second with the deadline in its error, and the job behind it on the same
// one-worker pool runs without waiting out the delay.
func TestReplayTimeoutBoundsStalledReplay(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	s := New(Config{Workers: 1, QueueSize: 8, ReplayTimeout: 150 * time.Millisecond})
	faultinject.Enable("worker.replay", faultinject.Fault{Delay: 3 * time.Second, Count: 1})
	s.Start()
	defer shutdownOrFail(t, s)
	start := time.Now()
	stalled, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	got := waitSettled(t, s, stalled.ID)
	if d := time.Since(start); got.Status != StatusFailed || !strings.Contains(got.Error, "deadline") || d > time.Second {
		t.Fatalf("stalled job: status %s (%s) after %v, want failed with the deadline within 1s", got.Status, got.Error, d)
	}
	got = waitSettled(t, s, next.ID)
	if d := time.Since(start); got.Status != StatusDone || d >= 3*time.Second {
		t.Fatalf("job behind the stall: status %s (%s) after %v, want done before the 3s delay ends", got.Status, got.Error, d)
	}
	assertSameFindings(t, "job behind the stall", got.Result, want)
}

// TestSubmitValidation: unknown tools and oversized traces are rejected.
func TestSubmitValidation(t *testing.T) {
	tr := recordTrace(t, 1)
	s := New(Config{Workers: 1, MaxEvents: 4})
	s.Start()
	defer shutdownOrFail(t, s)

	if _, err := s.Submit("no-such-tool", tr); err == nil {
		t.Error("unknown tool accepted")
	}
	if _, err := s.Submit("arbalest", tr); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized trace: err %v, want ErrTooLarge", err)
	}
	if got := s.Metrics().Snapshot(); got.JobsRejected != 2 {
		t.Errorf("jobsRejected %d, want 2", got.JobsRejected)
	}
}

// TestEndToEndHTTP drives the full HTTP surface: submit a recorded DRACC
// trace, poll the job, and check the known diagnostics, listing, and
// metrics.
func TestEndToEndHTTP(t *testing.T) {
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")
	if want.Issues == 0 || want.KindCounts["UUM"] == 0 {
		t.Fatalf("one-shot replay of DRACC 22 found %+v, expected UUM diagnostics", want)
	}

	s := New(Config{Workers: 2})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postTrace(t, srv.URL, "arbalest", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	view := decodeView(t, resp)

	settled := waitSettled(t, s, view.ID)
	// Re-read over HTTP so the wire format is what's checked.
	getResp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET job status %d, want 200", getResp.StatusCode)
	}
	got := decodeView(t, getResp)
	if got.Status != StatusDone {
		t.Fatalf("job %q (error %q), want done; settled view %+v", got.Status, got.Error, settled)
	}
	if got.Result.Issues != want.Issues || !reflect.DeepEqual(got.Result.KindCounts, want.KindCounts) {
		t.Errorf("daemon result %d issues %v, one-shot %d issues %v",
			got.Result.Issues, got.Result.KindCounts, want.Issues, want.KindCounts)
	}
	if len(got.Result.Reports) != want.Issues {
		t.Errorf("daemon returned %d reports, want %d", len(got.Result.Reports), want.Issues)
	}

	listResp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != view.ID {
		t.Errorf("listing %+v, want exactly job %s", list.Jobs, view.ID)
	}

	metResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	for _, line := range []string{
		"arbalestd_jobs_accepted_total 1",
		"arbalestd_jobs_completed_total 1",
		"arbalestd_workers 2",
		fmt.Sprintf("arbalestd_events_replayed_total %d", len(tr.Events)),
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics output missing %q:\n%s", line, metrics)
		}
	}

	if missing, err := http.Get(srv.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, missing.Body)
		missing.Body.Close()
		if missing.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job: status %d, want 404", missing.StatusCode)
		}
	}

	badResp, err := http.Post(srv.URL+"/v1/jobs?tool=arbalest", "application/x-ndjson",
		strings.NewReader("{\"kind\":\"access\",\"seq\":0}\nnot json\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, badResp.Body)
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST malformed trace: status %d, want 400", badResp.StatusCode)
	}

	shutdownOrFail(t, s)
}

// TestConcurrentJobsMatchOneShot is the acceptance scenario: >= 8 traces
// submitted concurrently over HTTP to a 4-worker daemon, each result equal
// to the one-shot replay of the same trace.
func TestConcurrentJobsMatchOneShot(t *testing.T) {
	// A mix of UUM, BO, USD and correct benchmarks.
	ids := []int{22, 23, 24, 25, 26, 27, 1, 44}
	traces := make([]*trace.Trace, len(ids))
	want := make([]*tools.Summary, len(ids))
	for i, id := range ids {
		traces[i] = recordTrace(t, id)
		want[i] = oneShot(t, traces[i], "arbalest")
	}

	s := New(Config{Workers: 4, QueueSize: 2 * len(ids)})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	jobIDs := make([]string, len(ids))
	var wg sync.WaitGroup
	errc := make(chan error, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := traces[i].Save(&buf); err != nil {
				errc <- fmt.Errorf("trace %d: save: %v", ids[i], err)
				return
			}
			resp, err := http.Post(srv.URL+"/v1/jobs?tool=arbalest", "application/x-ndjson", &buf)
			if err != nil {
				errc <- fmt.Errorf("trace %d: %v", ids[i], err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errc <- fmt.Errorf("trace %d: POST status %d", ids[i], resp.StatusCode)
				return
			}
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				errc <- fmt.Errorf("trace %d: decode: %v", ids[i], err)
				return
			}
			jobIDs[i] = v.ID
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for i, id := range ids {
		v := waitSettled(t, s, jobIDs[i])
		if v.Status != StatusDone {
			t.Errorf("DRACC %d: job %q (error %q)", id, v.Status, v.Error)
			continue
		}
		if v.Result.Issues != want[i].Issues || !reflect.DeepEqual(v.Result.KindCounts, want[i].KindCounts) {
			t.Errorf("DRACC %d: daemon %d issues %v, one-shot %d issues %v",
				id, v.Result.Issues, v.Result.KindCounts, want[i].Issues, want[i].KindCounts)
		}
	}

	shutdownOrFail(t, s)
	if got := s.Metrics().Snapshot(); got.JobsCompleted != int64(len(ids)) || got.QueueDepth != 0 {
		t.Errorf("metrics %+v, want %d completed with empty queue", got, len(ids))
	}
}

// TestGracefulShutdownDrains: Shutdown processes every accepted job before
// returning, and later submissions are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	tr := recordTrace(t, 26)

	s := New(Config{Workers: 2, QueueSize: 16})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 6
	views := make([]JobView, 0, n)
	for i := 0; i < n; i++ {
		v, err := s.Submit("arbalest", tr)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		views = append(views, v)
	}
	shutdownOrFail(t, s)

	for _, v := range views {
		got, ok := s.Job(v.ID)
		if !ok || got.Status != StatusDone {
			t.Errorf("after shutdown: job %s is %q (error %q), want done", v.ID, got.Status, got.Error)
		}
	}
	if _, err := s.Submit("arbalest", tr); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err %v, want ErrShuttingDown", err)
	}
	resp := postTrace(t, srv.URL, "arbalest", tr)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after shutdown: status %d, want 503", resp.StatusCode)
	}
}
