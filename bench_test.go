// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§VI):
//
//	BenchmarkTable3  — precision sweep cost over the DRACC suite (the
//	                   table's contents are checked by TestTable3Matrix and
//	                   printed by cmd/dracc)
//	BenchmarkFig8    — time overhead: each (workload, tool) cell's wall
//	                   time; slowdowns are the ratios against the native
//	                   cells (cmd/specaccel prints them directly)
//	BenchmarkFig9    — space overhead: peak application + shadow bytes per
//	                   (workload, tool) cell, reported as a custom metric
//
// plus the ablation microbenchmarks DESIGN.md §5 calls out: VSM transition
// cost, lock-free CAS vs mutexed shadow updates, interval-tree stabbing with
// and without the last-lookup cache, and word- vs region-granularity
// tracking.
package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dracc"
	"repro/internal/interval"
	"repro/internal/omp"
	"repro/internal/shadow"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/vsm"
)

// BenchmarkTable3 runs the 16 buggy DRACC benchmarks under each tool: the
// per-tool analysis cost of regenerating Table III.
func BenchmarkTable3(b *testing.B) {
	for _, tool := range tools.Names() {
		b.Run(tool, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bench := range dracc.Buggy() {
					if _, err := dracc.RunBenchmark(bench, tool); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchScale sizes the Fig. 8/9 workloads for benchmarking.
const benchScale = 2

// benchThreads is the simulated device thread count for the sweeps.
const benchThreads = 4

// BenchmarkFig8 measures each (workload, tool) cell of the time-overhead
// figure. Dividing a tool's ns/op by the same workload's native ns/op gives
// the slowdown factor the paper plots.
func BenchmarkFig8(b *testing.B) {
	for _, w := range specaccel.All() {
		for _, tool := range specaccel.PerfTools() {
			w, tool := w, tool
			b.Run(w.Name+"/"+tool, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := specaccel.Run(w, tool, benchScale, benchThreads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		w := w
		// Offline-analysis cell: replay a recorded trace of the workload
		// through ARBALEST, as a daemon job does.
		b.Run(w.Name+"/arbalest-replay", func(b *testing.B) {
			tr := recordBenchTrace(b, w)
			b.ReportAllocs()
			// One event ≈ one simulated instruction; SetBytes(8·events)
			// makes the MB/s column read as shadow words analyzed per
			// second, and events/op feeds the events/sec/core figure.
			b.SetBytes(int64(len(tr.Events)) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := tools.NewArbalestFull(nil)
				if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{}, a); err != nil {
					b.Fatal(err)
				}
				// Lease the shadow planes back, as the service does between
				// jobs — pooled-slab reuse is part of the measured design.
				a.Release()
			}
			b.ReportMetric(float64(len(tr.Events)), "events/op")
		})
	}
}

// recordBenchTrace records one execution of w at benchmark scale, outside
// the timed region, for the replay cells.
func recordBenchTrace(b *testing.B, w *specaccel.Workload) *trace.Trace {
	b.Helper()
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumThreads: benchThreads, HostMem: 8 << 20, DeviceMem: 8 << 20}, rec)
	if err := rt.Run(func(c *omp.Context) error { return w.Run(c, benchScale) }); err != nil {
		b.Fatal(err)
	}
	return rec.Trace()
}

// BenchmarkFig9 reports the peak-memory metric of the space-overhead figure
// for each (workload, tool) cell.
func BenchmarkFig9(b *testing.B) {
	for _, w := range specaccel.All() {
		for _, tool := range specaccel.PerfTools() {
			w, tool := w, tool
			b.Run(w.Name+"/"+tool, func(b *testing.B) {
				var peak uint64
				for i := 0; i < b.N; i++ {
					m, err := specaccel.Run(w, tool, benchScale, benchThreads)
					if err != nil {
						b.Fatal(err)
					}
					peak = m.AppPeakBytes + m.ToolPeakBytes
				}
				b.ReportMetric(float64(peak), "peak-bytes")
			})
		}
	}
}

// BenchmarkVSMTransition measures the pure state-machine step (paper §IV-C
// claims O(1) per operation).
func BenchmarkVSMTransition(b *testing.B) {
	ops := []vsm.Op{vsm.WriteHost, vsm.UpdateTarget, vsm.ReadTarget, vsm.WriteTarget, vsm.UpdateHost, vsm.ReadHost}
	w := shadow.Word(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, _ = vsm.Transition(w, ops[i%len(ops)])
	}
	_ = w
}

// BenchmarkShadowCAS vs BenchmarkShadowMutex: the lock-free design choice.
func BenchmarkShadowCAS(b *testing.B) {
	var slot uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			shadow.Update(&slot, func(w shadow.Word) shadow.Word {
				return w.WithClock(w.Clock() + 1)
			})
		}
	})
}

func BenchmarkShadowMutex(b *testing.B) {
	var mu sync.Mutex
	var w shadow.Word
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			w = w.WithClock(w.Clock() + 1)
			mu.Unlock()
		}
	})
}

// BenchmarkIntervalLookup quantifies the last-lookup cache (paper §IV-C:
// lookups amortize to O(1) because consecutive accesses hit one mapping).
func BenchmarkIntervalLookup(b *testing.B) {
	const m = 64 // mapped variables
	tr := interval.New[int]()
	for i := 0; i < m; i++ {
		lo := uint64(i) * 1024
		if err := tr.Insert(lo, lo+1024, i); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Sequential sweep through one mapping: the cache hits.
			tr.Stab(uint64(i % 1024))
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.StabNoCache(uint64(i % 1024))
		}
	})
	b.Run("cached-random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Hop between mappings: the cache misses, exposing O(log m).
			tr.Stab(uint64((i * 7919) % (m * 1024)))
		}
	})
}

// BenchmarkGranularityAblation compares word-granularity tracking (the
// paper's sound choice) with coarse per-region tracking on a stencil run.
func BenchmarkGranularityAblation(b *testing.B) {
	run := func(b *testing.B, g core.Granularity) {
		for i := 0; i < b.N; i++ {
			a := core.New(core.Options{Granularity: g})
			rt := omp.NewRuntime(omp.Config{NumThreads: benchThreads}, a)
			if err := rt.Run(func(c *omp.Context) error {
				return specaccel.ByName("503.postencil").Run(c, 1)
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("byte", func(b *testing.B) { run(b, core.GranularityByte) })
	b.Run("word", func(b *testing.B) { run(b, core.GranularityWord) })
	b.Run("region", func(b *testing.B) { run(b, core.GranularityRegion) })
}

// BenchmarkArbalestPerAccess isolates the detector's per-access cost
// (shadow lookup + VSM transition + CAS) on a tight host loop. The
// stats-off and stats-on variants bound the telemetry overhead: with
// collection disabled the instrumented paths are nil-checked no-ops, so
// the two stats-off cells must match within noise.
func BenchmarkArbalestPerAccess(b *testing.B) {
	run := func(b *testing.B, enableStats bool) {
		a := core.New(core.Options{})
		if enableStats {
			a.EnableStats()
		}
		rt := omp.NewRuntime(omp.Config{NumThreads: 1}, a)
		if err := rt.Run(func(c *omp.Context) error {
			buf := c.AllocF64(1024, "hot")
			for i := 0; i < 1024; i++ {
				c.StoreF64(buf, i, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.StoreF64(buf, i%1024, float64(i))
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if got := a.Sink().Count(); got != 0 {
			b.Fatalf("%d unexpected reports", got)
		}
		if enableStats && a.AnalyzerStats().TreeLookups() == 0 {
			b.Fatal("stats enabled but no lookups recorded")
		}
	}
	b.Run("stats-off", func(b *testing.B) { run(b, false) })
	b.Run("stats-on", func(b *testing.B) { run(b, true) })
}
