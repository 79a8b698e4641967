package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/dracc"
	"repro/internal/omp"
	"repro/internal/specaccel"
	"repro/internal/tools"
	"repro/internal/trace"
)

// fig8Scale is the problem scale of the Fig. 8 proxies: 1.8k–20.5k events
// per trace, large enough that per-event work dominates per-job costs.
const fig8Scale = 2

// chunkEvents is how many events one POST /v1/streams/{id}/events carries.
const chunkEvents = 1024

// liveSpace sizes each simulated address space for live (non-recording)
// runs: the 8 MiB specaccel.Run uses for Fig. 8, so runtime construction
// does not swamp the small programs.
const liveSpace = 8 << 20

// program is one OpenMP program with its known answer.
type program struct {
	name    string
	devices int
	run     func(c *omp.Context) error
	// faultsExpected marks programs whose defect may fault the simulated
	// runtime; that is part of the bug, not a benchmark error.
	faultsExpected bool
	// check is the known-answer oracle. It is written from the programs'
	// documented defects (Table III, Fig. 7, the Fig. 8 programs being
	// correct), never from the engine's own output.
	check func(s *tools.Summary) error
}

// fig8Programs returns the five Fig. 8 proxies, which are correct programs.
func fig8Programs() []*program {
	var out []*program
	for _, w := range specaccel.All() {
		w := w
		out = append(out, &program{
			name:  w.Name,
			run:   func(c *omp.Context) error { return w.Run(c, fig8Scale) },
			check: wantClean,
		})
	}
	return out
}

// fig8AndBuggy adds the postencil pointer-swap bug (Fig. 6) to the Fig. 8
// programs, so the large-trace workloads also carry one true finding.
func fig8AndBuggy() []*program {
	return append(fig8Programs(), &program{
		name: "postencil-buggy",
		run: func(c *omp.Context) error {
			specaccel.RunPostencilBuggy(c, fig8Scale)
			return nil
		},
		check: wantFig7,
	})
}

// draccPrograms returns all 56 DRACC programs (Table III).
func draccPrograms() []*program {
	var out []*program
	for _, b := range dracc.All() {
		b := b
		out = append(out, &program{
			name:           b.Name(),
			devices:        b.Devices,
			run:            func(c *omp.Context) error { b.Run(c); return nil },
			faultsExpected: true,
			check:          wantDetected(b.Defect != dracc.DefectNone),
		})
	}
	return out
}

// wantClean is the oracle of a correct program: no findings (E6).
func wantClean(s *tools.Summary) error {
	if s.Issues != 0 {
		return fmt.Errorf("want no findings, got %d %v", s.Issues, s.KindCounts)
	}
	return nil
}

// wantFig7 is the oracle of postencil-buggy: exactly one use of stale data,
// at the host read in main.c:145 (paper Fig. 7).
func wantFig7(s *tools.Summary) error {
	if len(s.Reports) != 1 {
		return fmt.Errorf("want exactly one finding, got %d %v", len(s.Reports), s.KindCounts)
	}
	r := s.Reports[0]
	if r.Kind.Label() != "USD" || r.Loc.File != "main.c" || r.Loc.Line != 145 {
		return fmt.Errorf("want USD at main.c:145, got %s at %s:%d", r.Kind.Label(), r.Loc.File, r.Loc.Line)
	}
	return nil
}

// wantDetected is the DRACC oracle: at least one finding iff the program
// has a known defect (16/16 buggy detected, none of the 40 correct flagged).
func wantDetected(buggy bool) func(s *tools.Summary) error {
	return func(s *tools.Summary) error {
		if (s.Issues > 0) != buggy {
			return fmt.Errorf("defect=%v but %d findings %v", buggy, s.Issues, s.KindCounts)
		}
		return nil
	}
}

// input is one program's recorded trace in every form the workloads send.
type input struct {
	prog *program
	tr   *trace.Trace
	// framed is the whole trace in the CRC-framed format: one job upload.
	framed []byte
	// chunks are complete framed streams of chunkEvents events each: one
	// stream events request per chunk, encoded before anything is timed.
	chunks [][]byte
}

func (in *input) events() int { return len(in.tr.Events) }

// record runs p once under the trace recorder with the recording
// configuration (two threads, forced-synchronous kernels, 64 MiB spaces).
func record(p *program) (*input, error) {
	rec := trace.NewRecorder()
	rt := omp.NewRuntime(omp.Config{NumThreads: 2, ForceSync: true, NumDevices: p.devices}, rec)
	if err := rt.Run(p.run); err != nil && !p.faultsExpected {
		return nil, fmt.Errorf("record %s: %w", p.name, err)
	}
	in := &input{prog: p, tr: rec.Trace()}
	var buf bytes.Buffer
	if err := in.tr.SaveFramed(&buf); err != nil {
		return nil, fmt.Errorf("frame %s: %w", p.name, err)
	}
	in.framed = buf.Bytes()
	for lo := 0; lo < len(in.tr.Events); lo += chunkEvents {
		c := trace.StreamHeader()
		for i := lo; i < min(lo+chunkEvents, len(in.tr.Events)); i++ {
			var err error
			if c, err = trace.AppendEventFrame(c, &in.tr.Events[i]); err != nil {
				return nil, fmt.Errorf("frame %s: %w", p.name, err)
			}
		}
		in.chunks = append(in.chunks, c)
	}
	return in, nil
}

// order returns the order in which a workload visits its n inputs on its
// cycle-th pass through them. The seed only permutes the order: the same
// seed gives the same sequence, and the daemon sees nothing but the
// recorded bytes. Each pass draws a new order, so which inputs run side by
// side on the clients does not stay fixed for a whole run.
func order(seed uint64, cycle, n int) []int {
	return rand.New(rand.NewPCG(seed, uint64(cycle))).Perm(n)
}

// runLive runs p once on a fresh simulated runtime under tool ("native" for
// none) with specaccel.Run's configuration (two threads, 8 MiB spaces), and
// returns the wall time of the run alone, as Fig. 8 measures it. ARBALEST
// tools run with forced-synchronous kernels, as the DRACC harness runs them.
func runLive(p *program, tool string, stats bool) (time.Duration, tools.Analyzer, error) {
	cfg := omp.Config{
		NumThreads: 2, NumDevices: p.devices, HostMem: liveSpace, DeviceMem: liveSpace,
		ForceSync: strings.HasPrefix(tool, "arbalest"),
	}
	var a tools.Analyzer
	var rt *omp.Runtime
	if tool == "native" {
		rt = omp.NewRuntime(cfg)
	} else {
		var err error
		if a, err = tools.NewWithOptions(tool, tools.Options{Stats: stats}); err != nil {
			return 0, nil, err
		}
		rt = omp.NewRuntime(cfg, a)
	}
	start := time.Now()
	err := rt.Run(p.run)
	elapsed := time.Since(start)
	if err != nil && !p.faultsExpected {
		return elapsed, a, fmt.Errorf("%s under %s: %w", p.name, tool, err)
	}
	return elapsed, a, nil
}

// release hands a finished analyzer's pooled shadow memory back, as the
// service does between jobs.
func release(a tools.Analyzer) {
	if r, ok := a.(tools.Releaser); ok {
		r.Release()
	}
}
