package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// TestUploadSpooledAsSent: a framed version-2 upload is journaled as the
// upload's own bytes, and a worker's fetch (Service.TraceFramed, which the
// coordinator serves at GET /v1/fleet/jobs/{id}/trace) returns those same
// bytes. A JSON-lines upload has no framed bytes to keep: it is spooled as
// version-2 frames that load to the same events, and fetched as the same.
func TestUploadSpooledAsSent(t *testing.T) {
	tr := recordTrace(t, 22)
	var framed, lines bytes.Buffer
	if err := tr.SaveFramed(&framed); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(&lines); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, contentType string
		body              []byte
		verbatim          bool
	}{
		{"framed-v2", "application/octet-stream", framed.Bytes(), true},
		{"json-lines", "application/x-ndjson", lines.Bytes(), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			jnl, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{Workers: 1, QueueSize: 8, Journal: jnl})
			running := make(chan struct{})
			release := make(chan struct{})
			s.testHookRunning = func(string) {
				close(running)
				<-release
			}
			s.Start()
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/v1/jobs?tool=arbalest", c.contentType, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("upload: status %d, want 202", resp.StatusCode)
			}
			id := decodeView(t, resp).ID
			<-running // the job holds its trace until it finishes

			spooled, err := os.ReadFile(filepath.Join(dir, id+".trace"))
			if err != nil {
				t.Fatal(err)
			}
			if c.verbatim && !bytes.Equal(spooled, c.body) {
				t.Fatalf("spool holds %d bytes that differ from the %d-byte upload", len(spooled), len(c.body))
			}
			if !bytes.HasPrefix(spooled, []byte("ARBT\x02")) {
				t.Fatalf("spool opens with %q, want a version-2 framed header", spooled[:min(len(spooled), 5)])
			}
			back, err := trace.Load(bytes.NewReader(spooled))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Expand(), tr.Events) {
				t.Fatal("spooled trace loads to other events than were uploaded")
			}
			fetched, err := s.TraceFramed(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fetched, spooled) {
				t.Fatalf("worker fetch returned %d bytes that differ from the %d spooled", len(fetched), len(spooled))
			}
			close(release)
			waitSettled(t, s, id)
			shutdownOrFail(t, s)
		})
	}
}

// TestChunkedUploadChargedBytesRead: the tenant byte quota is charged by
// the bytes of the body read, so an upload sent chunked (Content-Length
// -1) is refused by a quota it exceeds, exactly like one that declares its
// length, and leaves the tenant's usage unchanged.
func TestChunkedUploadChargedBytesRead(t *testing.T) {
	tr := recordTrace(t, 22)
	var body bytes.Buffer
	if err := tr.SaveFramed(&body); err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers: 1, QueueSize: 8,
		TenantLimits: map[string]tenant.Limits{"small": {MaxBytes: 100}},
	})
	s.Start()
	defer shutdownOrFail(t, s)
	var encodings [][]string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		encodings = append(encodings, r.TransferEncoding)
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	before := s.Tenants().Get("small").Usage()

	for _, c := range []struct {
		name string
		body io.Reader
	}{
		{"content-length", bytes.NewReader(body.Bytes())},
		{"chunked", io.MultiReader(bytes.NewReader(body.Bytes()))}, // length unknown to the client
	} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs?tool=arbalest", c.body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(tenant.Header, "small")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s upload of %d bytes over a 100-byte quota: status %d, want 429", c.name, body.Len(), resp.StatusCode)
		}
	}
	if want := [][]string{nil, {"chunked"}}; !reflect.DeepEqual(encodings, want) {
		t.Fatalf("transfer encodings %q, want %q", encodings, want)
	}
	if after := s.Tenants().Get("small").Usage(); after.Bytes != before.Bytes || after.Jobs != before.Jobs {
		t.Fatalf("tenant usage went from %d bytes, %d jobs to %d bytes, %d jobs", before.Bytes, before.Jobs, after.Bytes, after.Jobs)
	}
}
