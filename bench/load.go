package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tools"
)

// pollInterval is how long a submitting client waits between job polls.
const pollInterval = time.Millisecond

// opTimeout bounds one operation; a fig8 job normally takes ~150 ms.
const opTimeout = time.Minute

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// call is one client request, kept as a span when the run is traced.
type call struct {
	name       string
	start, end time.Time
	// n counts requests folded into the span (polls), 0 for one.
	n int
}

// opResult is one operation of a workload: a submitted job, a streamed
// session, or a pair of live program runs.
type opResult struct {
	in         *input
	start, end time.Time
	latency    time.Duration
	// native is the paired uninstrumented run (online workload only).
	native time.Duration
	err    error
	// wrong marks an answer the oracle rejected.
	wrong   bool
	polls   int
	calls   []call
	job     *telemetry.Span // the daemon's span tree for a traced job
	summary *tools.Summary
}

// finish stamps the end of the operation and checks its answer.
func (r *opResult) finish(summary *tools.Summary, err error) {
	r.end = time.Now()
	if r.latency == 0 {
		r.latency = r.end.Sub(r.start)
	}
	r.summary = summary
	switch {
	case err != nil:
		r.err = err
	case summary == nil:
		r.err = fmt.Errorf("%s: no result", r.in.prog.name)
	default:
		if cerr := r.in.prog.check(summary); cerr != nil {
			r.err = fmt.Errorf("%s: wrong answer: %w", r.in.prog.name, cerr)
			r.wrong = true
		}
	}
}

// client drives one daemon over HTTP with a bounded keep-alive pool.
type client struct {
	base   string
	http   *http.Client
	traced bool
}

func newClient(base string, conns int, traced bool) *client {
	tr := &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: opTimeout}, traced: traced}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and decodes the JSON answer into out. Any status
// other than want is an error carrying the daemon's message. A traced
// client keeps the request as a call named name, unless name is empty.
func (c *client) do(r *opResult, name, method, path string, body []byte, want int, out any) error {
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if c.traced && name != "" {
		r.calls = append(r.calls, call{name: name, start: start, end: time.Now()})
	}
	return json.Unmarshal(data, out)
}

// submit uploads in as a job and polls until the job is terminal. Latency
// runs from the start of the upload until the terminal status is seen.
func (c *client) submit(in *input) opResult {
	r := opResult{in: in, start: time.Now()}
	var v service.JobView
	if err := c.do(&r, "post", http.MethodPost, "/v1/jobs?tool=arbalest", in.framed, http.StatusAccepted, &v); err != nil {
		r.finish(nil, err)
		return r
	}
	pollStart := time.Now()
	for v.Status != service.StatusDone && v.Status != service.StatusFailed {
		if time.Since(r.start) > opTimeout {
			r.finish(nil, fmt.Errorf("job %s not terminal after %v", v.ID, opTimeout))
			return r
		}
		time.Sleep(pollInterval)
		id := v.ID
		v = service.JobView{}
		if err := c.do(&r, "", http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &v); err != nil {
			r.finish(nil, err)
			return r
		}
		r.polls++
	}
	if c.traced {
		r.calls = append(r.calls, call{name: "poll", start: pollStart, end: time.Now(), n: r.polls})
		r.job = v.Trace
	}
	if v.Status == service.StatusFailed {
		r.finish(nil, fmt.Errorf("job %s failed: %s", v.ID, v.Error))
		return r
	}
	r.finish(v.Result, nil)
	return r
}

// stream opens a session, sends in's pre-framed chunks one request each,
// and closes it. Latency runs from the open until the close answer.
func (c *client) stream(in *input) opResult {
	r := opResult{in: in, start: time.Now()}
	var v stream.View
	if err := c.do(&r, "open", http.MethodPost, "/v1/streams?tool=arbalest", nil, http.StatusCreated, &v); err != nil {
		r.finish(nil, err)
		return r
	}
	path := "/v1/streams/" + v.ID
	for _, chunk := range in.chunks {
		var ack stream.View
		if err := c.do(&r, "events", http.MethodPost, path+"/events", chunk, http.StatusOK, &ack); err != nil {
			r.finish(nil, err)
			return r
		}
	}
	if err := c.do(&r, "close", http.MethodPost, path+"/close", nil, http.StatusOK, &v); err != nil {
		r.finish(nil, err)
		return r
	}
	switch {
	case v.Status != stream.StatusDone:
		r.finish(nil, fmt.Errorf("stream %s %s: %s", v.ID, v.Status, v.Error))
	case v.Events != uint64(in.events()):
		r.finish(nil, fmt.Errorf("stream %s applied %d of %d events", v.ID, v.Events, in.events()))
	default:
		r.finish(v.Result, nil)
	}
	return r
}

// online runs in's program under ARBALEST and then natively, in process:
// the paper's own measurement (Fig. 8). Latency is the ARBALEST run's wall
// time; the native run is its baseline.
func online(in *input, traced bool) opResult {
	r := opResult{in: in, start: time.Now()}
	elapsed, a, err := runLive(in.prog, "arbalest", false)
	r.latency = elapsed
	if traced {
		r.calls = append(r.calls, call{name: "arbalest", start: r.start, end: r.start.Add(elapsed)})
	}
	if err != nil {
		r.finish(nil, err)
		return r
	}
	summary := tools.Summarize(a)
	release(a)
	nativeStart := time.Now()
	if r.native, _, err = runLive(in.prog, "native", false); err != nil {
		r.finish(nil, err)
		return r
	}
	if traced {
		r.calls = append(r.calls, call{name: "native", start: nativeStart, end: nativeStart.Add(r.native)})
	}
	r.finish(summary, nil)
	return r
}

// periods is how many parts the measured window is split into. Between
// parts the load stops, so the baselines a run compares against are taken
// on an idle daemon yet interleaved with the load: the host's speed drifts
// over tens of seconds, and a baseline taken only before the window would
// not see the drift the window saw.
const periods = 10

// loopResult is what one closed-loop window measured.
type loopResult struct {
	// ops are the operations issued in the measured periods, every one run
	// to its end.
	ops []opResult
	// active is the measured periods' length, each from its start until
	// its last operation finished.
	active time.Duration
	// wrong holds every rejected answer, warm-up included.
	wrong []opResult
}

// closedLoop runs clients goroutines, each issuing its next operation only
// when the previous one has finished, over the inputs in the seeded order:
// first for warmup, unmeasured, then for window split into periods.
// A client issues no operation after its period's time is up; the period
// ends when every operation in flight has finished, and between then and
// the next period pause runs with no load on the daemon. after(n), when
// given, runs on the client goroutine that finished the n-th measured
// operation.
func closedLoop(clients int, warmup, window time.Duration, inputs []*input, seed uint64, do func(*input) opResult, pause func(), after func(n int)) loopResult {
	var next, measured atomic.Int64
	n := int64(len(inputs))
	var out loopResult
	part := func(length time.Duration, keep bool) {
		start := time.Now()
		end := start.Add(length)
		ops := make([][]opResult, clients)
		var wg sync.WaitGroup
		for k := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					i := next.Add(1) - 1
					ops[k] = append(ops[k], do(inputs[order(seed, int(i/n), int(n))[i%n]]))
					if keep && after != nil {
						after(int(measured.Add(1)))
					}
				}
			}()
		}
		wg.Wait()
		if keep {
			out.active += time.Since(start)
		}
		for k := range clients {
			for _, r := range ops[k] {
				if r.wrong {
					out.wrong = append(out.wrong, r)
				}
				if keep {
					out.ops = append(out.ops, r)
				}
			}
		}
		if pause != nil {
			pause()
		}
	}
	part(warmup, false)
	for range periods {
		part(window/periods, true)
	}
	return out
}

// once runs do over every input once, in the seeded order, on one client:
// the probe pass that measures a path a workload's window does not use.
func once(inputs []*input, ord []int, do func(*input) opResult) []opResult {
	out := make([]opResult, 0, len(ord))
	for _, i := range ord {
		out = append(out, do(inputs[i]))
	}
	return out
}
