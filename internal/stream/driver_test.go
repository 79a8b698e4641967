package stream_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/dracc"
	"repro/internal/journal"
	"repro/internal/service"
	"repro/internal/tools"
	"repro/internal/trace"
)

// TestSessionReplaysSequentially: a session runs its analyzer in sequential
// dispatch, as batch replay does, so the shadow memory's region memo
// serves lookups. Under the concurrent (CAS) discipline the memo is off and
// every lookup searches the region index.
func TestSessionReplaysSequentially(t *testing.T) {
	h := newTestService(t, func(c *service.Config) { c.AnalyzerStats = true })
	tr := recordDRACC(t, dracc.ByID(22))
	s := openSession(t, h, "arbalest")
	feedChunks(t, s, frameEvents(t, tr, 0), 0)
	v, err := h.CloseStream(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if v.Result == nil || v.Result.Stats == nil {
		t.Fatalf("session with AnalyzerStats settled without stats: %+v", v.Result)
	}
	if st := v.Result.Stats; st.RegionMemoHits == 0 {
		t.Fatalf("region memo hits = 0 (index searches %d), want > 0 under sequential dispatch", st.IntervalLookups)
	}
}

// TestStreamCheckpointsAtReplayBoundaries: a journaled session fed one event
// per Feed writes its checkpoints at exactly the boundaries batch replay's
// Checkpoint callback reports for the same trace, for every DRACC program.
// A stream is sequential replay with the trace still arriving, so how the
// events were chunked must not move a checkpoint.
func TestStreamCheckpointsAtReplayBoundaries(t *testing.T) {
	const every = 4
	jnl, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newTestService(t, func(c *service.Config) {
		c.Journal, c.CheckpointEvery = jnl, every
		c.MaxStreams, c.MaxFinishedJobs = -1, -1
	})
	for _, b := range dracc.All() {
		tr := recordDRACC(t, b)
		a, err := tools.New("arbalest")
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		opts := trace.DurableOptions{CheckpointEvery: every, Checkpoint: func(next uint64) error {
			want = append(want, next)
			return nil
		}}
		if _, err := tr.ReplayDurable(context.Background(), opts, a); err != nil {
			t.Fatalf("%s: batch replay: %v", b.Name(), err)
		}

		s := openSession(t, h, "arbalest")
		if err := s.StartIngest(); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		chunk := trace.StreamHeader()
		for i := range tr.Events {
			if chunk, err = trace.AppendEventFrame(chunk, &tr.Events[i]); err != nil {
				t.Fatal(err)
			}
			before := s.CheckpointsWritten()
			if err := s.Feed(chunk); err != nil {
				t.Fatalf("%s: feed event %d: %v", b.Name(), i, err)
			}
			chunk = chunk[:0]
			switch s.CheckpointsWritten() - before {
			case 0:
			case 1:
				ck, err := jnl.ReadCheckpoint(s.ID())
				if err != nil {
					t.Fatalf("%s: checkpoint after event %d: %v", b.Name(), i, err)
				}
				got = append(got, ck.NextEvent)
			default:
				t.Fatalf("%s: one event cut several checkpoints", b.Name())
			}
		}
		if err := s.FinishIngest(); err != nil {
			t.Fatal(err)
		}
		s.EndIngest()
		if _, err := h.CloseStream(s.ID()); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: batch replay took no checkpoint with CheckpointEvery=%d", b.Name(), every)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: session checkpointed at %v, batch replay at %v", b.Name(), got, want)
		}
	}
}
