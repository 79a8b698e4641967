// Tenant admission tests: a rate-limited tenant is answered 429 with a
// Retry-After hint and — using the exact classification the arbalest client
// applies in -submit and -stream modes — backs off and succeeds on retry,
// while a second, well-behaved tenant proceeds immediately the whole time.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// postTraceAs submits tr under the given tenant identity.
func postTraceAs(t *testing.T, url, toolName string, tr *trace.Trace, tenantName string) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs?tool="+toolName, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if tenantName != "" {
		req.Header.Set(tenant.Header, tenantName)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainBody discards and closes a response body so the connection can be
// reused.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// retryAfterHeader asserts the response carries a whole-second Retry-After
// of at least one second and returns it.
func retryAfterHeader(t *testing.T, resp *http.Response) time.Duration {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", v)
	}
	return time.Duration(secs) * time.Second
}

// TestTenantThrottledSubmitBacksOff: with tenant "hog" limited to a burst
// of one submission, its second upload is throttled with a Retry-After
// hint; retried with the client's policy it backs off at least that long
// and then succeeds, while tenant "polite" submits without delay during
// the hog's penalty window.
//
// The buckets run on a clock that stands still until the retry loop holds
// its first 429, then follows real time. However slowly the requests run
// (under -race they take long enough for a real 500ms refill to land
// between them), the hog cannot earn a token before the backoff path is
// exercised, and from then on Retry-After is honored in real time.
func TestTenantThrottledSubmitBacksOff(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{
		Workers:   1,
		QueueSize: 64,
		TenantLimits: map[string]tenant.Limits{
			// One token, refilled every 500ms: the second back-to-back
			// submission is always throttled and Retry-After rounds up to 1s.
			"hog": {Rate: 2, Burst: 1},
		},
	})
	frozen := time.Now()
	var thawed atomic.Int64 // wall-clock UnixNano when the clock started; 0 while frozen
	s.Tenants().SetClock(func() time.Time {
		if at := thawed.Load(); at != 0 {
			return frozen.Add(time.Since(time.Unix(0, at)))
		}
		return frozen
	})
	s.Start()
	defer shutdownOrFail(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Spend the burst token.
	resp := postTraceAs(t, srv.URL, "arbalest", tr, "hog")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first hog submit: status %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	drainBody(resp)

	// The next submission must be throttled with a backoff hint.
	resp = postTraceAs(t, srv.URL, "arbalest", tr, "hog")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second hog submit: status %d, want 429", resp.StatusCode)
	}
	hint := retryAfterHeader(t, resp)
	drainBody(resp)

	// Retry exactly the way `arbalest -submit` classifies responses. The
	// first attempt is throttled again, so success requires honoring the
	// server's hint.
	start := time.Now()
	var attempts, throttled int
	err := retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}.Do(
		context.Background(), func(attempt int) error {
			attempts++
			resp := postTraceAs(t, srv.URL, "arbalest", tr, "hog")
			defer drainBody(resp)
			if retry.StatusRetryable(resp.StatusCode) {
				throttled++
				thawed.CompareAndSwap(0, time.Now().UnixNano())
				return retry.After(fmt.Errorf("status %d", resp.StatusCode), retry.RetryAfter(resp))
			}
			if resp.StatusCode != http.StatusAccepted {
				return retry.Permanent(fmt.Errorf("status %d", resp.StatusCode))
			}
			return nil
		})
	if err != nil {
		t.Fatalf("hog retry loop: %v", err)
	}
	elapsed := time.Since(start)
	if throttled == 0 {
		t.Fatal("hog retry loop was never throttled; the backoff path went unexercised")
	}
	// The policy's own jittered backoff tops out at 10ms, so an elapsed
	// time near the hint proves the server-directed delay was honored.
	if elapsed < hint-100*time.Millisecond {
		t.Fatalf("hog succeeded after %v with %d attempts; Retry-After %v was not honored", elapsed, attempts, hint)
	}

	// The polite tenant was never in the hog's penalty box.
	politeStart := time.Now()
	resp = postTraceAs(t, srv.URL, "arbalest", tr, "polite")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("polite submit: status %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	drainBody(resp)
	if d := time.Since(politeStart); d > hint {
		t.Fatalf("polite submit took %v, should not wait out the hog's %v penalty", d, hint)
	}
}

// TestTenantThrottledStreamOpenBacksOff is the -stream mode counterpart:
// a throttled stream open carries Retry-After, the client's retry loop
// honors it, and a second tenant opens sessions unimpeded meanwhile.
func TestTenantThrottledStreamOpenBacksOff(t *testing.T) {
	s := New(Config{
		Workers:    1,
		QueueSize:  8,
		MaxStreams: 16,
		TenantLimits: map[string]tenant.Limits{
			"hog": {Rate: 2, Burst: 1},
		},
	})
	s.Start()
	defer shutdownOrFail(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	open := func(tenantName string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/streams?tool=arbalest", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tenantName != "" {
			req.Header.Set(tenant.Header, tenantName)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := open("hog")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first hog open: status %d, want %d", resp.StatusCode, http.StatusCreated)
	}
	var view stream.View
	decodeJSON(t, resp, &view)
	if view.Tenant != "hog" {
		t.Fatalf("session tenant = %q, want hog", view.Tenant)
	}

	resp = open("hog")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second hog open: status %d, want 429", resp.StatusCode)
	}
	hint := retryAfterHeader(t, resp)
	drainBody(resp)

	start := time.Now()
	var throttled int
	err := retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}.Do(
		context.Background(), func(attempt int) error {
			resp := open("hog")
			defer drainBody(resp)
			if retry.StatusRetryable(resp.StatusCode) {
				throttled++
				return retry.After(fmt.Errorf("status %d", resp.StatusCode), retry.RetryAfter(resp))
			}
			if resp.StatusCode != http.StatusCreated {
				return retry.Permanent(fmt.Errorf("status %d", resp.StatusCode))
			}
			return nil
		})
	if err != nil {
		t.Fatalf("hog stream-open retry loop: %v", err)
	}
	if throttled == 0 {
		t.Fatal("hog stream-open retry loop was never throttled")
	}
	if elapsed := time.Since(start); elapsed < hint-100*time.Millisecond {
		t.Fatalf("hog stream open succeeded after %v; Retry-After %v was not honored", elapsed, hint)
	}

	politeStart := time.Now()
	resp = open("polite")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("polite open: status %d, want %d", resp.StatusCode, http.StatusCreated)
	}
	drainBody(resp)
	if d := time.Since(politeStart); d > hint {
		t.Fatalf("polite stream open took %v, should not inherit the hog's penalty", d)
	}
}

// TestTenantDeadlineShed: a job whose client deadline has already passed
// when it reaches the front of the queue is failed as shed, never replayed.
func TestTenantDeadlineShed(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{Workers: 1, QueueSize: 8})
	// Hold the single worker hostage on the first job so the deadline job
	// expires while still queued.
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookRunning = func(id string) {
		once.Do(func() {
			close(gate)
			<-release
		})
	}
	s.Start()
	defer shutdownOrFail(t, s)

	if _, err := s.Submit("arbalest", tr); err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	<-gate

	view, _, err := s.SubmitTrace(SubmitOptions{
		Tool:     "arbalest",
		Deadline: time.Now().Add(20 * time.Millisecond),
	}, tr)
	if err != nil {
		t.Fatalf("deadline submit: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)

	got := waitSettled(t, s, view.ID)
	if got.Status != StatusFailed {
		t.Fatalf("expired job status = %s, want %s", got.Status, StatusFailed)
	}
	if !strings.Contains(got.Error, "deadline expired") || got.Result != nil {
		t.Fatalf("expired job: error=%q result=%v, want deadline-shed failure with no result", got.Error, got.Result)
	}
}

// decodeJSON decodes a 2xx response body into v.
func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
}
