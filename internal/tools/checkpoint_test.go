package tools_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/tools"
	"repro/internal/trace"
)

// testdata/DRACC_OMP_023.state.json is the CheckpointState that the release
// indexing address maps with a red-black interval tree wrote for
// testdata/DRACC_OMP_023.arbt (a buffer-overflow program) at its first
// checkpoint boundary under CheckpointEvery 43. It holds two shadow regions,
// two CV ranges and the race detector's cells.
const (
	committedEvery = 43
	committedNext  = 43
)

// committedState mirrors the composite's checkpoint encoding, with the VSM
// part typed so rows can edit its ranges.
type committedState struct {
	VSM  core.State      `json:"vsm"`
	Race json.RawMessage `json:"race"`
	Sink json.RawMessage `json:"sink"`
}

func loadCommitted(t *testing.T) (*trace.Trace, json.RawMessage) {
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
	state, err := os.ReadFile("testdata/DRACC_OMP_023.state.json")
	if err != nil {
		t.Fatal(err)
	}
	return tr, state
}

// replayFrom replays tr into a from event start and returns its findings.
func replayFrom(t *testing.T, tr *trace.Trace, a tools.Analyzer, start uint64) string {
	t.Helper()
	if _, err := tr.ReplayDurable(context.Background(), trace.DurableOptions{StartEvent: start}, a); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(tools.Summarize(a).Reports)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCommittedCheckpointResumesAndReencodes: a checkpoint written before
// the address maps became sorted range indexes restores, resumes to the
// uninterrupted findings, and is what this release writes at the same
// boundary, byte for byte.
func TestCommittedCheckpointResumesAndReencodes(t *testing.T) {
	tr, state := loadCommitted(t)
	var st committedState
	if err := json.Unmarshal(state, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.VSM.Shadow.Regions) == 0 || len(st.VSM.CVs) < 2 || !bytes.Contains(st.Race, []byte(`"cells"`)) {
		t.Fatalf("committed state lacks shadow regions, CV ranges or race cells: %s", state)
	}
	want := replayFrom(t, tr, tools.NewArbalestFull(nil), 0)
	if want == "null" {
		t.Fatal("DRACC_OMP_023 replays without findings")
	}

	ck := &trace.Checkpoint{Tool: "arbalest", NextEvent: committedNext, Events: uint64(tr.Len()), State: state}
	a, start, restoreErr, err := tools.Resume("arbalest", tools.Options{}, ck)
	if err != nil || restoreErr != nil || start != committedNext {
		t.Fatalf("Resume: start %d, restore error %v, error %v", start, restoreErr, err)
	}
	if got := replayFrom(t, tr, a, start); got != want {
		t.Fatalf("resumed findings differ\ngot:  %s\nwant: %s", got, want)
	}

	fresh := tools.NewArbalestFull(nil)
	var next uint64
	var got json.RawMessage
	opts := trace.DurableOptions{CheckpointEvery: committedEvery, Checkpoint: func(n uint64) (err error) {
		if got == nil {
			next = n
			got, err = fresh.CheckpointState()
		}
		return err
	}}
	if _, err := tr.ReplayDurable(context.Background(), opts, fresh); err != nil {
		t.Fatal(err)
	}
	if next != committedNext || !bytes.Equal(got, state) {
		t.Fatalf("first checkpoint at %d encodes differently from the committed one at %d\ngot:  %s\nwant: %s", next, committedNext, got, state)
	}
}

// TestRestoreRejectsOverlappingOrEmptyRanges: a checkpoint whose CV ranges
// or shadow regions overlap, are empty, or are misaligned fails
// RestoreState, and tools.Resume then starts a fresh analyzer from event 0.
func TestRestoreRejectsOverlappingOrEmptyRanges(t *testing.T) {
	tr, state := loadCommitted(t)
	want := replayFrom(t, tr, tools.NewArbalestFull(nil), 0)
	blank, err := tools.NewArbalestFull(nil).CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name, errText string
		edit          func(st *core.State)
	}{
		{"overlapping CV ranges", "overlaps", func(st *core.State) {
			st.CVs[1].CV = st.CVs[0].CV + 4
		}},
		{"empty CV range", "empty interval", func(st *core.State) {
			st.CVs[0].Bytes = 0
		}},
		{"overlapping shadow regions", "overlaps", func(st *core.State) {
			r := &st.Shadow.Regions[1]
			r.Lo, r.Hi = st.Shadow.Regions[0].Hi-mem.WordSize, st.Shadow.Regions[0].Hi
		}},
		{"empty shadow region", "bad region bounds", func(st *core.State) {
			r := &st.Shadow.Regions[1]
			r.Hi, r.Words = r.Lo, nil
		}},
		{"misaligned shadow region", "bad region bounds", func(st *core.State) {
			st.Shadow.Regions[0].Lo++
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var st committedState
			if err := json.Unmarshal(state, &st); err != nil {
				t.Fatal(err)
			}
			row.edit(&st.VSM)
			bad, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if err := tools.NewArbalestFull(nil).RestoreState(bad); err == nil || !strings.Contains(err.Error(), row.errText) {
				t.Fatalf("RestoreState error %v, want one mentioning %q", err, row.errText)
			}
			ck := &trace.Checkpoint{Tool: "arbalest", NextEvent: committedNext, Events: uint64(tr.Len()), State: bad}
			a, start, restoreErr, err := tools.Resume("arbalest", tools.Options{}, ck)
			if err != nil || restoreErr == nil || start != 0 {
				t.Fatalf("Resume: start %d, restore error %v, error %v; want a fresh start", start, restoreErr, err)
			}
			if st, err := a.(tools.Checkpointer).CheckpointState(); err != nil || !bytes.Equal(st, blank) {
				t.Fatalf("Resume kept state from the rejected checkpoint: %s (%v)", st, err)
			}
			if got := replayFrom(t, tr, a, start); got != want {
				t.Fatalf("fresh replay findings differ\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}
