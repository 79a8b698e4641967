package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/bench/stat"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/ompt"
	"repro/internal/race"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
)

// cellReps is how many times each in-process layer cell runs over the
// workload's inputs; a cell reports its median rep.
const cellReps = 5

// timed runs f once and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// medianRep runs rep cellReps times and returns its median duration; rep
// returns the timed part of one pass over the inputs.
func medianRep(inputs []*input, f func(in *input) (time.Duration, error)) (time.Duration, error) {
	var reps []float64
	for range cellReps {
		var total time.Duration
		for _, in := range inputs {
			d, err := f(in)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", in.prog.name, err)
			}
			total += d
		}
		reps = append(reps, float64(total))
	}
	return time.Duration(stat.Median(reps)), nil
}

// cells times each layer's public function on the workload's own inputs,
// from outside the program, and returns the values keyed by metric name.
// It also returns the summaries of one stats-enabled live ARBALEST run per
// input, the online path's analyzer counts.
func cells(inputs []*input, spool string) (map[string]float64, []*tools.Summary, error) {
	ctx := context.Background()
	events := 0
	for _, in := range inputs {
		events += in.events()
	}
	m := make(map[string]float64)
	perEvent := func(d time.Duration) float64 { return float64(d) / float64(events) }
	type cell struct {
		name string
		f    func(in *input) (time.Duration, error)
	}
	jnl, err := journal.Open(spool)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	appends := 0
	replayInto := func(newTool func() tools.Analyzer) func(in *input) (time.Duration, error) {
		return func(in *input) (time.Duration, error) {
			a := newTool()
			defer release(a)
			return timed(func() error { return in.tr.ReplayContext(ctx, a) })
		}
	}
	live := func(tool string) func(in *input) (time.Duration, error) {
		return func(in *input) (time.Duration, error) {
			d, a, err := runLive(in.prog, tool, false)
			release(a)
			return d, err
		}
	}
	nop := ompt.NopTool{}
	// Build each trace's access columns before the detector cells, so they
	// time the analysis alone; the columns cell below times the build on
	// fresh copies.
	for _, in := range inputs {
		if err := in.tr.ReplayContext(ctx, nop); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range []cell{
		{"trace.decode_ns_per_event", func(in *input) (time.Duration, error) {
			return timed(func() error {
				_, err := trace.LoadLimited(bytes.NewReader(in.framed), trace.Limits{})
				return err
			})
		}},
		{"trace.push_decode_ns_per_event", func(in *input) (time.Duration, error) {
			return timed(func() error {
				for _, chunk := range in.chunks {
					dec := trace.NewPushDecoder(trace.Limits{})
					if err := dec.Push(chunk, func(*trace.Event) error { return nil }); err != nil {
						return err
					}
					if err := dec.Finish(); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"trace.encode_ns_per_event", func(in *input) (time.Duration, error) {
			buf.Reset()
			return timed(func() error { return in.tr.SaveFramed(&buf) })
		}},
		{"journal.append_ms_per_job", func(in *input) (time.Duration, error) {
			appends++
			id := fmt.Sprintf("cell-%d", appends)
			d, err := timed(func() error {
				return jnl.Append(journal.Record{ID: id, Tool: "arbalest", Events: in.events(), Submitted: time.Now()}, in.tr)
			})
			if err == nil {
				err = jnl.Remove(id)
			}
			return d, err
		}},
		{"core.vsm_ns_per_event", replayInto(func() tools.Analyzer { return core.New(core.Options{}) })},
		{"race.detect_ns_per_event", replayInto(func() tools.Analyzer { return race.New(nil) })},
		{"tools.arbalest_ns_per_event", replayInto(func() tools.Analyzer { return tools.NewArbalestFull(nil) })},
		{"tools.summarize_us_per_job", func(in *input) (time.Duration, error) {
			a := tools.NewArbalestFull(nil)
			a.EnableStats()
			defer release(a)
			if err := in.tr.ReplayContext(ctx, a); err != nil {
				return 0, err
			}
			return timed(func() error { tools.Summarize(a); return nil })
		}},
		{"omp.native_ns_per_event", live("native")},
		{"online.vsm_ns_per_event", live("arbalest-vsm")},
		{"online.race_ns_per_event", live("archer")},
		{"online.arbalest_ns_per_event", live("arbalest")},
	} {
		d, err := medianRep(inputs, c.f)
		if err != nil {
			return nil, nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		m[c.name] = perEvent(d)
	}
	// The first replay of a fresh trace builds its access columns; a
	// repeat replays them. Both into a no-op tool.
	var first, repeat []float64
	for range cellReps {
		var f, r time.Duration
		for _, in := range inputs {
			fresh := &trace.Trace{Events: in.tr.Events}
			d1, err := timed(func() error { return fresh.ReplayContext(ctx, nop) })
			if err != nil {
				return nil, nil, err
			}
			d2, err := timed(func() error { return fresh.ReplayContext(ctx, nop) })
			if err != nil {
				return nil, nil, err
			}
			f, r = f+d1, r+d2
		}
		first, repeat = append(first, float64(f)), append(repeat, float64(r))
	}
	m["trace.columns_ns_per_event"] = (stat.Median(first) - stat.Median(repeat)) / float64(events)
	m["ompt.dispatch_ns_per_event"] = stat.Median(repeat) / float64(events)

	// Per-job and net-of-baseline forms.
	m["journal.append_ms_per_job"] *= float64(events) / float64(len(inputs)) / 1e6
	m["tools.summarize_us_per_job"] *= float64(events) / float64(len(inputs)) / 1e3
	dispatch, native := m["ompt.dispatch_ns_per_event"], m["omp.native_ns_per_event"]
	m["core.vsm_ns_per_event"] -= dispatch
	m["race.detect_ns_per_event"] -= dispatch
	for _, k := range []string{"online.vsm_ns_per_event", "online.race_ns_per_event", "online.arbalest_ns_per_event"} {
		m[k] -= native
	}
	m["race.share_of_arbalest"] = m["race.detect_ns_per_event"] / (m["tools.arbalest_ns_per_event"] - dispatch)
	m["online.race_share_of_arbalest"] = m["online.race_ns_per_event"] / m["online.arbalest_ns_per_event"]
	m["online.replay_gap_ns_per_event"] = m["online.arbalest_ns_per_event"] - m["tools.arbalest_ns_per_event"]

	var summaries []*tools.Summary
	for _, in := range inputs {
		_, a, err := runLive(in.prog, "arbalest", true)
		if err != nil {
			return nil, nil, err
		}
		summaries = append(summaries, tools.Summarize(a))
		release(a)
	}
	return m, summaries, nil
}

// childNanos sums the durations of j's direct children named name (a job
// retried after a stall has one replay span per attempt).
func childNanos(j *telemetry.Span, name string) float64 {
	var sum float64
	for _, c := range j.Children {
		if c.Name == name {
			sum += float64(c.DurationNanos)
		}
	}
	return sum
}

// layerMetrics assembles the per-layer metrics of a traced run: the
// daemon's job span trees (jobs), the client's stream requests (streams),
// analyzer counts (summaries), the in-process cells, and the tracing
// overhead.
func layerMetrics(jobs, streams []opResult, summaries []*tools.Summary, inputs []*input, cellVals map[string]float64, overhead float64) map[string]float64 {
	m := make(map[string]float64, len(cellVals)+24)
	for k, v := range cellVals {
		m[k] = v
	}
	var parse, jrnl, queue, replay, summ, outside, polls []float64
	var total, tParse, tJrnl, tReplay, self float64
	for _, r := range jobs {
		if r.err != nil || r.job == nil {
			continue
		}
		j := r.job
		p, jn, q, rp, s := childNanos(j, "parse"), childNanos(j, "journal"), childNanos(j, "queue"), childNanos(j, "replay"), childNanos(j, "summarize")
		parse, jrnl, queue = append(parse, p/1e6), append(jrnl, jn/1e6), append(queue, q/1e6)
		replay, summ = append(replay, rp/1e6), append(summ, s/1e6)
		outside = append(outside, ms(r.latency)-float64(j.DurationNanos)/1e6)
		polls = append(polls, float64(r.polls))
		total += float64(j.DurationNanos)
		tParse, tJrnl, tReplay = tParse+p, tJrnl+jn, tReplay+rp
		self += float64(jobSelfNanos(j))
	}
	m["service.parse_ms"] = stat.Median(parse)
	m["service.parse_share"] = tParse / total
	m["journal.append_ms"] = stat.Median(jrnl)
	m["journal.append_share"] = tJrnl / total
	m["tenant.queue_wait_ms"] = stat.Median(queue)
	m["service.replay_ms"] = stat.Median(replay)
	m["service.replay_share"] = tReplay / total
	m["service.summarize_ms"] = stat.Median(summ)
	m["service.outside_job_ms"] = stat.Median(outside)
	m["service.span_coverage"] = 1 - self/total
	m["client.polls_per_job"] = stat.Median(polls)

	byName := map[string][]float64{}
	for _, r := range streams {
		if r.err != nil {
			continue
		}
		for _, c := range r.calls {
			byName[c.name] = append(byName[c.name], ms(c.end.Sub(c.start)))
		}
	}
	m["stream.open_ms"] = stat.Median(byName["open"])
	m["stream.events_ms_per_chunk"] = stat.Median(byName["events"])
	m["stream.close_ms"] = stat.Median(byName["close"])

	var accesses, lookups, memo, retries, transitions float64
	var peak []float64
	for _, s := range summaries {
		if s == nil || s.Stats == nil {
			continue
		}
		st := s.Stats
		accesses += float64(st.Accesses)
		lookups += float64(st.IntervalLookups)
		memo += float64(st.RegionMemoHits)
		retries += float64(st.ShadowCASRetries)
		for _, t := range st.VSMTransitions {
			transitions += float64(t.Count)
		}
		peak = append(peak, float64(s.ShadowBytes))
	}
	m["shadow.interval_lookups_per_access"] = lookups / accesses
	m["shadow.region_memo_hit_frac"] = memo / (memo + lookups)
	m["vsm.transitions_per_access"] = transitions / accesses
	m["shadow.cas_retries_per_access"] = retries / accesses
	m["shadow.peak_bytes"] = stat.Median(peak)

	var bytesUp, events float64
	for _, in := range inputs {
		bytesUp += float64(len(in.framed))
		events += float64(in.events())
	}
	m["service.upload_bytes_per_event"] = bytesUp / events
	m["bench.trace_overhead_frac"] = overhead
	return m
}
