// Fleet status mode: `arbalest -fleet-status URL` fetches the daemon's
// federated fleet view (GET /v1/fleet/status) and prints it — worker
// liveness, lease/fencing counters, queue pressure, and the span-derived
// job latency digest. The endpoint answers in every role: a standalone
// daemon reports its inline replay pool and no workers, so the same
// invocation works against any deployment.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/service"
)

// fleetStatus fetches and prints /v1/fleet/status, returning the process
// exit code.
func fleetStatus(baseURL string, jsonOut bool) int {
	baseURL = strings.TrimSuffix(baseURL, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(baseURL + "/v1/fleet/status")
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: fleet status:", err)
		return 2
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: fleet status:", err)
		return 2
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "arbalest: fleet status: %s\n", resp.Status)
		return 2
	}
	var st service.FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		fmt.Fprintln(os.Stderr, "arbalest: fleet status:", err)
		return 2
	}
	if jsonOut {
		printJSON(st)
		return 0
	}

	fmt.Printf("fleet role: %s\n", st.Role)
	fmt.Printf("queue %d/%d, pending %d, leased %d, traces stored %d\n",
		st.QueueDepth, st.QueueCapacity, st.Pending, st.Leased, st.Traces)
	c := st.Counters
	fmt.Printf("counters: granted=%d expired=%d heartbeats=%d fenced=%d rescheduled=%d inline=%d\n",
		c.LeasesGranted, c.LeasesExpired, c.Heartbeats, c.FencedWrites, c.JobsRescheduled, c.JobsInline)
	if jl := st.JobLatency; jl != nil {
		fmt.Printf("job latency: p50=%s p99=%s over %d traced job(s)\n",
			time.Duration(jl.P50Nanos).Round(time.Microsecond),
			time.Duration(jl.P99Nanos).Round(time.Microsecond), jl.Count)
	}
	if p := st.Pool; p != nil {
		fmt.Printf("pool: %d running of %d\n", p.Running, p.Size)
	}
	fmt.Printf("workers (%d):\n", len(st.Workers))
	now := time.Now()
	for _, w := range st.Workers {
		state := "live"
		if !w.Live {
			state = "lost"
		}
		fmt.Printf("  %-24s %-4s leases=%d last seen %s ago\n",
			w.ID, state, w.Leases, now.Sub(w.LastSeen).Round(time.Millisecond))
	}
	return 0
}
