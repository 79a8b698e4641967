// Package telemetry is the repository's observability toolkit: a small
// metrics registry (counters, gauges, and fixed-bucket histograms, all
// optionally labeled) that renders the Prometheus text exposition format,
// per-job span trees for phase-level latency attribution, and the nil-safe
// AnalyzerStats collector the detector hot paths use to count VSM state
// transitions, interval-index lookups, and memo hits.
//
// The registry's hot path is lock-free: every sample update is a single
// atomic operation (plus one CAS loop for histogram sums). Locks are only
// taken when a labeled series is first created and when the registry is
// scraped.
// The package depends only on the standard library so every layer of the
// analyzer — shadow memory, VSM, detector, service — can import it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Metric type strings as they appear on # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// family is one metric family: a name, help text, a type, and one series
// per distinct label-value combination (exactly one, keyed "", for
// unlabeled metrics).
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	order  []string
	series map[string]*series
}

// series is one sample stream within a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// MaxSeries bounds the distinct label-value combinations one family tracks.
// Combinations past the cap collapse into a shared series whose label
// values are all OverflowValue — the same move the tenant registry makes at
// its cap, so an adversarial flood of fabricated label values (tenant
// names, worker ids) cannot grow /metrics without bound.
const MaxSeries = 1024

// OverflowValue is the label value that absorbs series past MaxSeries.
const OverflowValue = "_overflow"

// seriesFor returns (creating on first use) the series for the given label
// values.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok && len(f.labels) > 0 && len(f.series) >= MaxSeries {
		// Cardinality cap: account this sample under the shared overflow
		// series instead of minting a new one.
		ov := make([]string, len(values))
		for i := range ov {
			ov[i] = OverflowValue
		}
		values = ov
		key = strings.Join(values, "\xff")
		s, ok = f.series[key]
	}
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		switch f.typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = newHistogram(f.buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register creates (or fails on a conflicting re-registration of) a family.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).seriesFor(nil).counter
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).seriesFor(nil).gauge
}

// Histogram registers an unlabeled fixed-bucket histogram. buckets are the
// upper bounds (exclusive of +Inf, which is always added) and must be
// sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, checkBuckets(name, buckets)).seriesFor(nil).hist
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, checkBuckets(name, buckets))}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly increasing", name))
		}
	}
	return append([]float64(nil), buckets...)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.seriesFor(values).counter }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.seriesFor(values).gauge }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.seriesFor(values).hist }

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines first, then
// the family's samples, families in registration order and series in
// first-use order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sers := make([]*series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		f.mu.Unlock()
		for _, s := range sers {
			writeSeries(&sb, f, s)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeSeries(sb *strings.Builder, f *family, s *series) {
	switch f.typ {
	case typeCounter:
		fmt.Fprintf(sb, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""),
			strconv.FormatUint(s.counter.Value(), 10))
	case typeGauge:
		fmt.Fprintf(sb, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""),
			strconv.FormatInt(s.gauge.Value(), 10))
	case typeHistogram:
		cum, count, sum := s.hist.snapshot()
		for i, b := range s.hist.bounds {
			fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelValues, "le", formatFloat(b)), cum[i])
		}
		fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, s.labelValues, "le", "+Inf"), count)
		fmt.Fprintf(sb, "%s_sum%s %s\n", f.name,
			labelString(f.labels, s.labelValues, "", ""), formatFloat(sum))
		fmt.Fprintf(sb, "%s_count%s %d\n", f.name,
			labelString(f.labels, s.labelValues, "", ""), count)
	}
}

// labelString renders {a="x",b="y"} (optionally with one extra pair
// appended, used for histogram le labels), or "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DurationBuckets is the default bucket layout for latency histograms:
// 1µs up to 60s, roughly logarithmic.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// FineDurationBuckets is the bucket layout for very fast operations —
// per-chunk stream decode, lock acquisition — where DurationBuckets' 1µs
// floor would lump everything into the first two buckets: 100ns up to 1s.
var FineDurationBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 0.1, 1,
}

// SizeBuckets is the default bucket layout for byte-size histograms:
// 256 B up to 1 GiB, in powers of four.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Histogram is a fixed-bucket histogram. Observations are counted in the
// first bucket whose upper bound is >= the value; values above every bound
// land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; the last is the +Inf overflow
	sumBits atomic.Uint64   // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nb := floatBits(floatFromBits(old) + v)
		if h.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	_, count, _ := h.snapshot()
	return count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	_, _, sum := h.snapshot()
	return sum
}

// snapshot returns the cumulative per-bound counts (excluding +Inf), the
// total count, and the sum. The total is derived from the buckets, so a
// scrape is always internally consistent: the +Inf cumulative count equals
// _count by construction.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.bounds))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		if i < len(h.bounds) {
			cum[i] = running
		}
	}
	return cum, running, floatFromBits(h.sumBits.Load())
}
