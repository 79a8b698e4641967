package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ompt"
	"repro/internal/trace"
)

// sampleTrace builds a tiny but valid trace by hand.
func sampleTrace(n int) *trace.Trace {
	rec := trace.NewRecorder()
	rec.OnDeviceInit(ompt.DeviceInitEvent{Device: 1, Name: "gpu0"})
	for i := 0; i < n; i++ {
		rec.OnSync(ompt.SyncEvent{Task: 1})
	}
	return rec.Trace()
}

func mustOpen(t *testing.T) *Journal {
	t.Helper()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	j := mustOpen(t)
	tr := sampleTrace(3)
	rec := Record{ID: "job-0", Tool: "arbalest", Key: "k-1", Events: len(tr.Events), Submitted: time.Now()}
	if err := j.Append(rec, tr); err != nil {
		t.Fatal(err)
	}

	jobs, _, errs := j.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.ID != "job-0" || got.Tool != "arbalest" || got.Key != "k-1" || got.Events != rec.Events {
		t.Errorf("recovered record %+v, want %+v", got.Record, rec)
	}
	if got.Status != StatusPending {
		t.Errorf("status %q, want pending", got.Status)
	}
	if got.Trace == nil || got.Trace.Len() != len(tr.Events) {
		t.Errorf("recovered trace %+v, want %d events", got.Trace, len(tr.Events))
	}
}

func TestLifecycleTransitions(t *testing.T) {
	j := mustOpen(t)
	tr := sampleTrace(1)
	if err := j.Append(Record{ID: "job-0", Tool: "arbalest", Events: 2, Submitted: time.Now()}, tr); err != nil {
		t.Fatal(err)
	}
	if err := j.Mark("job-0", StatusRunning, "", nil); err != nil {
		t.Fatal(err)
	}

	// Last status running => still recovered with a trace.
	jobs, _, _ := j.Recover()
	if len(jobs) != 1 || jobs[0].Status != StatusRunning || jobs[0].Trace == nil {
		t.Fatalf("running job recovered as %+v", jobs)
	}

	result := json.RawMessage(`{"issues":2}`)
	if err := j.Mark("job-0", StatusDone, "", result); err != nil {
		t.Fatal(err)
	}
	jobs, _, errs := j.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	if jobs[0].Status != StatusDone || jobs[0].Trace != nil {
		t.Errorf("done job: status %q trace %v, want done with no trace", jobs[0].Status, jobs[0].Trace)
	}
	if string(jobs[0].Result) != `{"issues":2}` {
		t.Errorf("result %s, want {\"issues\":2}", jobs[0].Result)
	}
	if jobs[0].Finished.IsZero() {
		t.Error("done job has zero finished time")
	}
}

func TestFailedJobKeepsError(t *testing.T) {
	j := mustOpen(t)
	if err := j.Append(Record{ID: "job-7", Tool: "arbalest", Submitted: time.Now()}, sampleTrace(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Mark("job-7", StatusFailed, "analyzer panicked: boom", nil); err != nil {
		t.Fatal(err)
	}
	jobs, _, _ := j.Recover()
	if len(jobs) != 1 || jobs[0].Status != StatusFailed || jobs[0].Error != "analyzer panicked: boom" {
		t.Fatalf("failed job recovered as %+v", jobs)
	}
}

func TestRemove(t *testing.T) {
	j := mustOpen(t)
	if err := j.Append(Record{ID: "job-0", Tool: "arbalest", Submitted: time.Now()}, sampleTrace(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove("job-0"); err != nil {
		t.Fatal(err)
	}
	if jobs, _, errs := j.Recover(); len(jobs) != 0 || len(errs) != 0 {
		t.Fatalf("after remove: jobs %v errs %v, want none", jobs, errs)
	}
	// Removing again is a no-op, not an error.
	if err := j.Remove("job-0"); err != nil {
		t.Fatalf("double remove: %v", err)
	}
}

func TestTornFinalLineIsTolerated(t *testing.T) {
	j := mustOpen(t)
	if err := j.Append(Record{ID: "job-0", Tool: "arbalest", Submitted: time.Now()}, sampleTrace(2)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append of the done mark: a torn, non-JSON tail.
	f, err := os.OpenFile(filepath.Join(j.Dir(), "job-0.meta"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"status":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jobs, _, errs := j.Recover()
	if len(errs) != 0 {
		t.Fatalf("recover errors: %v", errs)
	}
	if len(jobs) != 1 || jobs[0].Status != StatusPending || jobs[0].Trace == nil {
		t.Fatalf("torn-tail job recovered as %+v, want pending with trace", jobs)
	}
}

func TestCorruptFirstLineReported(t *testing.T) {
	j := mustOpen(t)
	if err := os.WriteFile(filepath.Join(j.Dir(), "job-9.meta"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, _, errs := j.Recover()
	if len(jobs) != 0 || len(errs) != 1 {
		t.Fatalf("corrupt meta: jobs %v errs %v, want 0 jobs 1 error", jobs, errs)
	}
}

func TestRecoverOrderIsNumericAware(t *testing.T) {
	j := mustOpen(t)
	for _, id := range []string{"job-10", "job-2", "job-1"} {
		if err := j.Append(Record{ID: id, Tool: "arbalest", Submitted: time.Now()}, sampleTrace(1)); err != nil {
			t.Fatal(err)
		}
	}
	jobs, _, _ := j.Recover()
	var ids []string
	for _, rj := range jobs {
		ids = append(ids, rj.ID)
	}
	want := []string{"job-1", "job-2", "job-10"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order %v, want %v", ids, want)
		}
	}
}

func TestAppendFaultLeavesNoResidue(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	j := mustOpen(t)
	faultinject.Enable("journal.append", faultinject.Fault{Err: errors.New("disk full")})
	err := j.Append(Record{ID: "job-0", Tool: "arbalest", Submitted: time.Now()}, sampleTrace(1))
	if err == nil {
		t.Fatal("append succeeded under injected fault")
	}
	faultinject.Reset()
	if jobs, _, errs := j.Recover(); len(jobs) != 0 || len(errs) != 0 {
		t.Fatalf("residue after failed append: jobs %v errs %v", jobs, errs)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
