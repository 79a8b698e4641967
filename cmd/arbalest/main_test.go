package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/ompt"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/tools"
	"repro/internal/trace"
)

// TestSubmitRetriesFlakyServer: the -submit client survives a daemon that
// answers 429 (with Retry-After) before accepting, resends the same
// idempotency key and the same framed trace on every attempt, and settles
// on the job's result.
func TestSubmitRetriesFlakyServer(t *testing.T) {
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 1, Name: "gpu0"})
	rec.OnSync(ompt.SyncEvent{Task: 1})
	tr := rec.Trace()

	var posts atomic.Int32
	var keys []string
	var bodies [][]byte
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get(retry.IdempotencyHeader))
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body)
		if posts.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "service: job queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobView{ID: "job-0", Tool: "arbalest", Status: service.StatusPending})
	})
	mux.HandleFunc("GET /v1/jobs/job-0", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobView{
			ID: "job-0", Tool: "arbalest", Status: service.StatusDone,
			Result: &tools.Summary{Tool: "Arbalest", Issues: 0},
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if code := submitTrace(srv.URL, tr, "arbalest", false); code != 0 {
		t.Fatalf("submitTrace exit code %d, want 0", code)
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("server saw %d POSTs, want 2 (429 then 202)", got)
	}
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Errorf("idempotency keys across retries: %q, want the same non-empty key twice", keys)
	}
	// Every attempt uploads the framed version-2 encoding of the trace.
	for i, body := range bodies {
		if !bytes.HasPrefix(body, []byte("ARBT\x02")) {
			t.Fatalf("attempt %d body opens with %q, want a version-2 framed header", i, body[:min(len(body), 5)])
		}
		got, err := trace.Load(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("attempt %d body: %v", i, err)
		}
		if !reflect.DeepEqual(got.Expand(), tr.Events) {
			t.Fatalf("attempt %d body decodes to other events than were submitted", i)
		}
	}
}

// TestSubmitGivesUpOnPermanentError: a 400 validation response is not
// retried.
func TestSubmitGivesUpOnPermanentError(t *testing.T) {
	rec := trace.NewRecorder()
	rec.OnSync(ompt.SyncEvent{Task: 1})
	tr := rec.Trace()

	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown tool"})
	}))
	defer srv.Close()

	if code := submitTrace(srv.URL, tr, "no-such-tool", false); code == 0 {
		t.Fatal("submitTrace succeeded against a 400 server")
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("server saw %d POSTs, want 1 (no retry on 400)", got)
	}
}
