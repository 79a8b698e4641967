// Tenant-flood chaos smoke: three tenants share one coordinator fleet while
// a hostile tenant submits at roughly ten times its admission quota and
// probabilistic faults hit the lease path and the stream ingest path. The
// polite tenants must still reach terminal states within their client
// deadlines, with findings byte-identical to a single-process replay, and
// every accepted job must settle exactly once.
//
// The default run is a few seconds so `go test ./internal/dist/` stays
// cheap; CI sets ARBALEST_TENANT_CHAOS_MS for the longer soak.
package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/tenant"
	"repro/internal/tools"
	"repro/internal/trace"
)

func tenantChaosDuration() time.Duration {
	if ms := os.Getenv("ARBALEST_TENANT_CHAOS_MS"); ms != "" {
		if n, err := strconv.Atoi(ms); err == nil && n > 0 {
			return time.Duration(n) * time.Millisecond
		}
	}
	return 2 * time.Second
}

// newTenantFleet is newFleet with tenant limits: a coordinator-mode service
// where mallory is rate-limited and quota-capped while alice and bob carry
// the fair-share weights.
func newTenantFleet(t *testing.T) *fleet {
	t.Helper()
	return startFleet(t, service.Config{
		Workers:         2,
		QueueSize:       64,
		MaxStreams:      32,
		CheckpointEvery: 1,
		TenantLimits: map[string]tenant.Limits{
			"mallory": {Weight: 1, Rate: 25, Burst: 5, MaxJobs: 4},
			"alice":   {Weight: 2},
			"bob":     {Weight: 1},
		},
	}, dist.CoordinatorConfig{LeaseTTL: 150 * time.Millisecond}, false)
}

// submitAs POSTs tr under tenantName, returning the response status and
// (when accepted) the job id. It never fails the test itself — it is also
// called from the flood goroutine, where t.Fatal is off limits.
func submitAs(client *http.Client, url, tenantName, deadline string, tr []byte) (int, string) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs?tool=arbalest", bytes.NewReader(tr))
	if err != nil {
		return 0, ""
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(tenant.Header, tenantName)
	if deadline != "" {
		req.Header.Set(tenant.DeadlineHeader, deadline)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "" // connection-level flake: the caller retries
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return resp.StatusCode, ""
	}
	var v service.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return resp.StatusCode, ""
	}
	return resp.StatusCode, v.ID
}

// streamAs drives one complete streaming session for tenantName against a
// daemon whose ingest path is being fault-injected: open (retrying 429/503
// with Retry-After), upload with resume-from-acknowledged-position after
// every dropped connection, close, and return the final view.
func streamAs(t *testing.T, client *http.Client, url, tenantName string, tr *trace.Trace) stream.View {
	t.Helper()
	ctx := context.Background()
	policy := retry.Policy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Budget: 30 * time.Second}

	var view stream.View
	err := policy.Do(ctx, func(int) error {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/streams?tool=arbalest", nil)
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set(tenant.Header, tenantName)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		if retry.StatusRetryable(resp.StatusCode) {
			after := retry.RetryAfter(resp)
			drainClose(resp)
			return retry.After(fmt.Errorf("open: %s", resp.Status), after)
		}
		return decodeStreamView(resp, &view)
	})
	if err != nil {
		t.Fatalf("stream open for %s: %v", tenantName, err)
	}

	streamURL := url + "/v1/streams/" + view.ID
	// Upload with resume: a fault-aborted connection only costs the
	// unacknowledged suffix. More attempts than the job paths get, because
	// a 10% per-chunk fault rate drops connections routinely.
	err = retry.Policy{MaxAttempts: 30, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Budget: 45 * time.Second}.Do(ctx, func(attempt int) error {
		resume := uint64(0)
		if attempt > 0 {
			v, gerr := getStreamView(client, streamURL)
			if gerr != nil {
				return gerr
			}
			if v.Status != stream.StatusLive {
				return retry.Permanent(fmt.Errorf("stream %s went %s: %s", v.ID, v.Status, v.Error))
			}
			resume = v.Events
		}
		body := trace.StreamHeader()
		for i := resume; i < uint64(len(tr.Events)); i++ {
			var ferr error
			if body, ferr = trace.AppendEventFrame(body, &tr.Events[i]); ferr != nil {
				return retry.Permanent(ferr)
			}
		}
		resp, err := client.Post(streamURL+"/events", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return err // injected mid-body disconnect: resume
		}
		if retry.StatusRetryable(resp.StatusCode) {
			after := retry.RetryAfter(resp)
			drainClose(resp)
			return retry.After(fmt.Errorf("upload: %s", resp.Status), after)
		}
		if resp.StatusCode == http.StatusConflict {
			drainClose(resp)
			return fmt.Errorf("upload: another request still attached")
		}
		return decodeStreamView(resp, &view)
	})
	if err != nil {
		t.Fatalf("stream upload for %s: %v", tenantName, err)
	}

	err = policy.Do(ctx, func(int) error {
		resp, err := client.Post(streamURL+"/close", "application/json", nil)
		if err != nil {
			return err
		}
		if retry.StatusRetryable(resp.StatusCode) {
			after := retry.RetryAfter(resp)
			drainClose(resp)
			return retry.After(fmt.Errorf("close: %s", resp.Status), after)
		}
		return decodeStreamView(resp, &view)
	})
	if err != nil {
		t.Fatalf("stream close for %s: %v", tenantName, err)
	}
	return view
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func decodeStreamView(resp *http.Response, view *stream.View) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return retry.Permanent(fmt.Errorf("%s: %s", resp.Status, body))
	}
	return json.Unmarshal(body, view)
}

func getStreamView(client *http.Client, streamURL string) (stream.View, error) {
	resp, err := client.Get(streamURL)
	if err != nil {
		return stream.View{}, err
	}
	var v stream.View
	if derr := decodeStreamView(resp, &v); derr != nil {
		return stream.View{}, derr
	}
	return v, nil
}

func TestTenantFloodChaos(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	// Ground truth per benchmark, recorded before any fault is armed.
	type bench struct {
		tr   *trace.Trace
		raw  []byte
		want *tools.Summary
	}
	var rotation []bench
	for _, id := range []int{22, 23, 26} {
		tr := recordTrace(t, id)
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		rotation = append(rotation, bench{tr: tr, raw: buf.Bytes(), want: oneShot(t, tr, "arbalest")})
	}

	f := newTenantFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	wg := startWorkers(ctx, f.srv.URL, 2, 1, true)
	defer wg.Wait()
	defer cancel()
	f.waitMetric("arbalestd_fleet_workers", 2, 5*time.Second)

	// The storm: 10% of lease RPCs answer 503 and 10% of ingest chunk
	// reads sever the connection mid-body.
	faultinject.Seed(7)
	faultinject.Enable("dist.lease", faultinject.Fault{Err: errors.New("chaos: coordinator hiccup"), Prob: 0.10})
	faultinject.Enable("stream.read", faultinject.Fault{Err: errors.New("chaos: ingest disconnect"), Prob: 0.10})

	// Mallory floods at ~500 submissions/s against a 25/s admission rate —
	// 20x over quota — banking every id the daemon actually accepts.
	var malloryAccepted []string
	var malloryTried, malloryRejected atomic.Int64
	floodCtx, stopFlood := context.WithCancel(ctx)
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		client := &http.Client{Timeout: 10 * time.Second}
		for floodCtx.Err() == nil {
			malloryTried.Add(1)
			status, id := submitAs(client, f.srv.URL, "mallory", "", rotation[0].raw)
			if id != "" {
				malloryAccepted = append(malloryAccepted, id)
			} else if status == http.StatusTooManyRequests {
				malloryRejected.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Polite traffic: alice and bob submit deadline-stamped jobs through
	// the same flooded front door, and every few rounds one of them runs a
	// full streaming session across the faulty ingest path.
	type submitted struct {
		id   string
		want *tools.Summary
	}
	client := &http.Client{Timeout: 10 * time.Second}
	var polite []submitted
	names := []string{"alice", "bob"}
	deadline := time.Now().Add(tenantChaosDuration())
	settled := func() int {
		n := 0
		for _, j := range polite {
			if v, ok := f.svc.Job(j.id); ok && (v.Status == service.StatusDone || v.Status == service.StatusFailed) {
				n++
			}
		}
		return n
	}
	for i := 0; time.Now().Before(deadline); i++ {
		if len(polite)-settled() >= 8 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		b := rotation[i%len(rotation)]
		who := names[i%len(names)]
		status, id := submitAs(client, f.srv.URL, who, "60s", b.raw)
		if id == "" {
			// Polite tenants are unthrottled; only a connection flake or a
			// transiently full queue may turn them away, never a quota.
			if status == http.StatusTooManyRequests {
				t.Fatalf("polite tenant %s was throttled (attempt %d)", who, i)
			}
			continue
		}
		polite = append(polite, submitted{id: id, want: b.want})
		if i%4 == 3 {
			view := streamAs(t, client, f.srv.URL, who, b.tr)
			if view.Status != stream.StatusDone {
				t.Fatalf("%s stream %s: status %s (%s)", who, view.ID, view.Status, view.Error)
			}
			if view.Tenant != who {
				t.Fatalf("%s stream %s admitted as tenant %q", who, view.ID, view.Tenant)
			}
			assertSameFindings(t, who+" stream "+view.ID, view.Result, b.want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Storm over: stop the flood, disarm the faults, and drain.
	stopFlood()
	<-floodDone
	faultinject.Reset()

	if len(polite) == 0 {
		t.Fatal("no polite jobs were accepted during the storm")
	}
	if malloryRejected.Load() == 0 {
		t.Fatalf("mallory was never throttled across %d submissions; the flood did not exercise admission", malloryTried.Load())
	}
	for _, j := range polite {
		got := f.waitSettled(j.id)
		if got.Status != service.StatusDone {
			t.Fatalf("polite job %s: status %s (%s)", j.id, got.Status, got.Error)
		}
		assertSameFindings(t, "polite job "+j.id, got.Result, j.want)
	}
	// Mallory's accepted jobs still settle exactly once — isolation
	// throttles the flood at admission, it does not corrupt accepted work.
	for _, id := range malloryAccepted {
		got := f.waitSettled(id)
		if got.Status != service.StatusDone {
			t.Fatalf("mallory job %s: status %s (%s)", id, got.Status, got.Error)
		}
	}
	accepted := len(polite) + len(malloryAccepted)
	if done := int(f.svc.Metrics().Snapshot().JobsCompleted); done != accepted {
		t.Fatalf("jobs completed = %d, want exactly %d (exactly-once violated)", done, accepted)
	}

	t.Logf("tenant chaos: %d polite jobs, mallory %d/%d accepted (%d throttled), %v leases granted",
		len(polite), len(malloryAccepted), malloryTried.Load(), malloryRejected.Load(),
		f.metric("arbalestd_fleet_leases_granted_total"))
}
