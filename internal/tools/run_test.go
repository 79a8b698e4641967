package tools_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/report"
	"repro/internal/tools"
	"repro/internal/trace"
)

func loadDRACC023(t *testing.T) *trace.Trace {
	t.Helper()
	f, err := os.Open("testdata/DRACC_OMP_023.arbt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// finishReports ends r and returns its findings as JSON.
func finishReports(t *testing.T, r *tools.Run) string {
	t.Helper()
	sum, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(sum.Reports)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunCheckpointsResume: a run's checkpoints name its record, its tool
// and the whole trace's length, and a run resumed from one of them reports
// what the uninterrupted run reported.
func TestRunCheckpointsResume(t *testing.T) {
	tr := loadDRACC023(t)
	var cks []*trace.Checkpoint
	run, err := tools.NewRun("arbalest", tools.RunOptions{
		ID: "job-7", CheckpointEvery: 43,
		Checkpoint: func(take func() (*trace.Checkpoint, error)) error {
			ck, err := take()
			cks = append(cks, ck)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Replay(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	want := finishReports(t, run)
	if len(cks) < 2 {
		t.Fatalf("%d checkpoints, want at least 2", len(cks))
	}
	for _, ck := range cks {
		if ck.JobID != "job-7" || ck.Tool != "arbalest" || ck.Events != uint64(tr.Len()) || ck.NextEvent == 0 {
			t.Fatalf("checkpoint %+v, want job-7's arbalest state within %d events", ck, tr.Len())
		}
	}

	resumed, err := tools.NewRun("arbalest", tools.RunOptions{From: cks[1]})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.RestoreErr != nil || resumed.Start != cks[1].NextEvent {
		t.Fatalf("resumed at %d (%v), want %d", resumed.Start, resumed.RestoreErr, cks[1].NextEvent)
	}
	if _, err := resumed.Replay(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if got := finishReports(t, resumed); got != want {
		t.Fatalf("resumed findings differ\ngot:  %s\nwant: %s", got, want)
	}
}

// brokenSink is an analyzer whose summary panics.
type brokenSink struct{ tools.Analyzer }

func (brokenSink) Sink() *report.Sink { panic("broken sink") }

// TestRunConfinesPanics: an analyzer panic in the replay or in the summary
// comes back as an error carrying the panic value and the panicking stack,
// not as a panic.
func TestRunConfinesPanics(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := loadDRACC023(t)
	run, err := tools.NewRun("arbalest", tools.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable("worker.replay", faultinject.Fault{Panic: "injected", Count: 1})
	_, err = run.Replay(context.Background(), tr)
	if !errors.Is(err, tools.ErrPanicked) ||
		!strings.Contains(err.Error(), "analyzer panicked: injected") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("replay panic came back as %v", err)
	}

	run.Analyzer = brokenSink{run.Analyzer}
	if sum, err := run.Finish(); sum != nil || !errors.Is(err, tools.ErrPanicked) ||
		!strings.Contains(err.Error(), "analyzer panicked: broken sink") {
		t.Fatalf("summary panic came back as %v, %v", sum, err)
	}
}
