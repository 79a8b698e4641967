// Live streaming mode: `arbalest -stream URL <program>` ships the recorded
// execution to an arbalestd streaming session as CRC32C-framed chunks and
// prints the session's summary — the client half of internal/stream.
//
// The upload is resumable end to end: the session view's Events field is
// the number of events the daemon has applied, so after any failure (a
// dropped connection, a daemon restart that recovered the session from its
// journal) the client re-frames the trace from that position and re-sends.
// Events the daemon already applied are skipped by sequence number, making
// over-sending safe.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/retry"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// streamTrace opens a streaming session, ships tr as framed chunks with
// retried, resumable uploads, closes the session, and prints its summary.
func streamTrace(baseURL string, tr *trace.Trace, toolName string, jsonOut bool) int {
	baseURL = strings.TrimSuffix(baseURL, "/")
	client := &http.Client{Timeout: 5 * time.Minute}
	ctx := context.Background()

	// Open the session. 429 (saturated) and 503 (starting up, draining) are
	// retried with capped exponential backoff, honoring Retry-After. The
	// open carries a fresh traceparent (one per session, shared by retries)
	// so the whole session — across resumes — is one trace on the daemon.
	tc := telemetry.NewTraceContext()
	var view stream.View
	err := retry.Policy{}.Do(ctx, func(attempt int) error {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "arbalest: stream open retry %d...\n", attempt)
		}
		req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/streams?tool="+toolName, nil)
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		tc.Inject(req.Header)
		tenantHeaders(req.Header)
		resp, err := client.Do(req)
		if err != nil {
			return err // connection-level failure: retryable
		}
		return classify(resp, &view)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: stream open:", err)
		return 2
	}
	if view.TraceID != "" {
		fmt.Fprintf(os.Stderr, "streaming %d events as %s to %s (trace %s)\n", tr.Len(), view.ID, baseURL, view.TraceID)
	} else {
		fmt.Fprintf(os.Stderr, "streaming %d events as %s to %s\n", tr.Len(), view.ID, baseURL)
	}

	// Upload. Each attempt asks the session where it stands (View.Events)
	// and re-frames the trace from there, so a retry after a mid-body
	// failure sends only the unacknowledged suffix.
	events := tr.Expand()
	streamURL := baseURL + "/v1/streams/" + view.ID
	err = retry.Policy{Budget: 2 * time.Minute, MaxAttempts: 6}.Do(ctx, func(attempt int) error {
		resume := uint64(0)
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "arbalest: stream upload retry %d...\n", attempt)
			v, gerr := getStream(client, streamURL)
			if gerr != nil {
				return gerr
			}
			if v.Status != stream.StatusLive {
				return retry.Permanent(fmt.Errorf("stream %s is %s: %s", v.ID, v.Status, v.Error))
			}
			resume = v.Events
		}
		body, ferr := frameEvents(events, resume)
		if ferr != nil {
			return retry.Permanent(ferr)
		}
		resp, err := client.Post(streamURL+"/events", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusConflict {
			// Another request is still attached (e.g. our timed-out attempt).
			_, derr := decodeStream(resp)
			return derr
		}
		return classify(resp, &view)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: stream upload:", err)
		return 2
	}

	// Close. Idempotent server-side: a retried close returns the settled
	// summary.
	err = retry.Policy{}.Do(ctx, func(attempt int) error {
		resp, err := client.Post(streamURL+"/close", "application/json", nil)
		if err != nil {
			return err
		}
		return classify(resp, &view)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: stream close:", err)
		return 2
	}

	if jsonOut {
		printJSON(view)
	} else if view.Status != stream.StatusDone {
		fmt.Fprintf(os.Stderr, "arbalest: stream %s %s: %s\n", view.ID, view.Status, view.Error)
	} else if view.Result != nil {
		for i := range view.Result.Reports {
			fmt.Println(&view.Result.Reports[i])
		}
		fmt.Printf("%s (streamed): %d issue(s) detected\n", view.Result.Tool, view.Result.Issues)
	}
	switch {
	case view.Status != stream.StatusDone:
		return 2
	case view.Result != nil && view.Result.Issues > 0:
		return 1
	}
	return 0
}

// frameEvents encodes events[from:] as one framed stream (header plus one
// CRC32C frame per event) — the wire format POST /v1/streams/{id}/events
// expects. Sequence numbers inside the events are absolute, so the daemon
// skips anything it already applied.
func frameEvents(events []trace.Event, from uint64) ([]byte, error) {
	if from > uint64(len(events)) {
		return nil, fmt.Errorf("stream acknowledged %d events but the trace has %d", from, len(events))
	}
	buf := trace.StreamHeader()
	for i := from; i < uint64(len(events)); i++ {
		var err error
		if buf, err = trace.AppendEventFrame(buf, &events[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// getStream fetches the session's current view (the resume cursor). Its
// errors are classified for the enclosing retry loop exactly like the open
// and upload requests: 429/503/5xx honor the daemon's Retry-After (the
// resume fetch lands precisely when the daemon is restarting or shedding —
// the moment a server-directed delay matters most), while other non-2xx
// answers (e.g. the session is gone) are permanent.
func getStream(client *http.Client, streamURL string) (view stream.View, err error) {
	resp, err := client.Get(streamURL)
	if err != nil {
		return stream.View{}, err // connection-level failure: retryable
	}
	err = classify(resp, &view)
	return view, err
}

// classify decodes a session answer into view for a retry loop, by
// retry.Classify's rules.
func classify(resp *http.Response, view *stream.View) error {
	return retry.Classify(resp, func(resp *http.Response) (err error) {
		*view, err = decodeStream(resp)
		return err
	})
}

// decodeStream reads one stream.View from an arbalestd response, surfacing
// the daemon's error body on non-2xx statuses.
func decodeStream(resp *http.Response) (stream.View, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return stream.View{}, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return stream.View{}, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return stream.View{}, fmt.Errorf("%s", resp.Status)
	}
	var view stream.View
	if err := json.Unmarshal(body, &view); err != nil {
		return stream.View{}, err
	}
	return view, nil
}
