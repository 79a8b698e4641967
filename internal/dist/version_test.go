package dist_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/service"
)

// newerTraceTransport serves a worker's trace fetches with the framed
// header's version byte bumped past the newest version the worker reads, so
// the worker stands where a pre-version-2 worker stands before a version-2
// trace. fetched closes after the first rewritten fetch.
type newerTraceTransport struct {
	once    sync.Once
	fetched chan struct{}
}

func (tt *newerTraceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/trace") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(data) > 4 && string(data[:4]) == "ARBT" {
		data[4] = 3
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	resp.ContentLength = int64(len(data))
	tt.once.Do(func() { close(tt.fetched) })
	return resp, nil
}

// lockedBuffer is an io.Writer a logger and the test can share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerThatCannotReadTraceAbandonsLease: a worker handed a trace in a
// framed version it cannot read abandons the lease without posting a
// result, the lease expires, and a worker that reads the version, started
// once the first has given the job up, finishes it with the standalone
// findings.
func TestWorkerThatCannotReadTraceAbandonsLease(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	// WorkerTTL outlives the test, so the requeued job waits for the next
	// lease poll instead of running inline.
	f := newFleet(t, nil, 200*time.Millisecond, 30*time.Second, false)
	transport := &newerTraceTransport{fetched: make(chan struct{})}
	var logs lockedBuffer
	old := dist.NewWorker(dist.WorkerConfig{
		ID:             "old",
		CoordinatorURL: f.srv.URL,
		PollWait:       50 * time.Millisecond,
		Client:         &http.Client{Transport: transport},
		Retry:          retry.Policy{MaxAttempts: 1},
		Logger:         slog.New(slog.NewTextHandler(&logs, nil)),
	})
	oldCtx, stopOld := context.WithCancel(context.Background())
	defer stopOld()
	oldDone := make(chan struct{})
	go func() {
		defer close(oldDone)
		_ = old.Run(oldCtx)
	}()
	f.waitMetric("arbalestd_fleet_workers", 1, 5*time.Second)

	v, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-transport.fetched:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never fetched the leased trace")
	}
	// The worker retires once it has read the trace, so it cannot lease the
	// job again.
	stopOld()
	<-oldDone
	if l := logs.String(); !strings.Contains(l, "abandoning lease") || !strings.Contains(l, "unsupported version 3") {
		t.Fatalf("worker did not abandon the lease over the trace version; log:\n%s", l)
	}
	f.waitMetric("arbalestd_fleet_leases_expired_total", 1, 10*time.Second)
	if got, _ := f.svc.Job(v.ID); got.Status == service.StatusDone || got.Status == service.StatusFailed {
		t.Fatalf("job %s settled as %s before a worker could read it", v.ID, got.Status)
	}

	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 1, 1, false)
	defer wg.Wait()
	defer cancel()
	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "after the abandoned lease", got.Result, want)
	if n := f.metric("arbalestd_fleet_jobs_inline_total"); n != 0 {
		t.Fatalf("job ran inline (%v) instead of on the second worker", n)
	}
	if done := f.svc.Metrics().Snapshot().JobsCompleted; done != 1 {
		t.Fatalf("jobs completed = %d, want exactly 1", done)
	}
}

// leaseLog records, in order, each lease a worker is granted ('G') and
// each trace download it receives ('F').
type leaseLog struct {
	next http.RoundTripper
	mu   sync.Mutex
	seq  []byte
}

func (l *leaseLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case strings.HasSuffix(req.URL.Path, "/lease"):
		l.seq = append(l.seq, 'G')
	case strings.HasSuffix(req.URL.Path, "/trace"):
		l.seq = append(l.seq, 'F')
	}
	return resp, nil
}

func (l *leaseLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.seq)
}

// TestWorkerFetchesUnreadableTraceOncePerLease: a worker with a
// three-attempt retry policy that cannot read its leased trace downloads it
// once per granted lease, not once per attempt, and the job still finishes
// on a worker that reads it.
func TestWorkerFetchesUnreadableTraceOncePerLease(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := recordTrace(t, 22)
	want := oneShot(t, tr, "arbalest")

	f := newFleet(t, nil, 200*time.Millisecond, 30*time.Second, false)
	seen := &leaseLog{next: &newerTraceTransport{fetched: make(chan struct{})}}
	old := dist.NewWorker(dist.WorkerConfig{
		ID:             "old",
		CoordinatorURL: f.srv.URL,
		PollWait:       50 * time.Millisecond,
		Client:         &http.Client{Transport: seen},
		Retry:          testRetry(),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	oldCtx, stopOld := context.WithCancel(context.Background())
	defer stopOld()
	oldDone := make(chan struct{})
	go func() {
		defer close(oldDone)
		_ = old.Run(oldCtx)
	}()
	f.waitMetric("arbalestd_fleet_workers", 1, 5*time.Second)
	v, err := f.svc.Submit("arbalest", tr)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for strings.Count(seen.String(), "G") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("the worker was granted too few leases: %q", seen.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopOld()
	<-oldDone
	leases := strings.Split(seen.String(), "G")[1:]
	for i, fetches := range leases {
		// The worker may be stopped between its last grant and its fetch.
		if fetches != "F" && !(i == len(leases)-1 && fetches == "") {
			t.Fatalf("lease %d fetched the trace %d times, want once (log %q)", i, len(fetches), seen.String())
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 1, 1, false)
	defer wg.Wait()
	defer cancel()
	got := f.waitSettled(v.ID)
	if got.Status != service.StatusDone {
		t.Fatalf("job %s: status %s (%s)", v.ID, got.Status, got.Error)
	}
	assertSameFindings(t, "after the unreadable leases", got.Result, want)
}
