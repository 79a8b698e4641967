package stream_test

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dracc"
	"repro/internal/journal"
	"repro/internal/service"
	. "repro/internal/stream"
	"repro/internal/trace"
)

// v1Spool encodes events as a version-1 spool held them: the framed header
// with version 1, then one frame per event whose payload is the event's
// JSON encoding.
func v1Spool(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := []byte("ARBT\x01\x00\x00\x00")
	for i := range events {
		p, err := json.Marshal(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
		out = append(out, p...)
	}
	return out
}

// TestStreamRecoveryFromV1Spool: a session whose spool was written in the
// version-1 format recovers, takes more events (appended to that spool as
// version-2 frames, checkpointed on the way), is killed and recovered again
// from the mixed spool, and ends with the findings of an uninterrupted
// session.
func TestStreamRecoveryFromV1Spool(t *testing.T) {
	tr := recordDRACC(t, dracc.ByID(22))
	want := streamedReports(t, newTestService(t, nil), tr, "arbalest", 0)
	if len(want) == 0 {
		t.Fatal("DRACC_OMP_022 streamed without findings")
	}
	third := len(tr.Events) / 3

	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1 := newService(func(c *service.Config) { c.Journal = jnl })
	id := openSession(t, h1, "arbalest").ID()
	// Kill, leaving the spool a version-1 daemon would have written after
	// applying the first third of the events.
	if err := os.WriteFile(filepath.Join(dir, id+".trace"), v1Spool(t, tr.Events[:third]), 0o644); err != nil {
		t.Fatal(err)
	}

	reboot := func() (*service.Service, *Session) {
		t.Helper()
		jnl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h := newService(func(c *service.Config) { c.Journal = jnl; c.CheckpointEvery = 4 })
		if live, err := recoverLive(h); err != nil || live != 1 {
			t.Fatalf("recovery: %d live, err %v; want 1, nil", live, err)
		}
		s, ok := h.Session(id)
		if !ok {
			t.Fatalf("recovered hub has no session %s", id)
		}
		return h, s
	}

	h2, s2 := reboot()
	if v := viewOf(h2, s2); v.Status != StatusLive || v.Events != uint64(third) {
		t.Fatalf("recovered from the version-1 spool: %s at event %d, want live at %d", v.Status, v.Events, third)
	}
	body := trace.StreamHeader()
	for i := third; i < 2*third; i++ {
		if body, err = trace.AppendEventFrame(body, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	feedChunks(t, s2, body, 0)
	// Kill again: the spool now holds version-1 frames, then version-2 ones.

	h3, s3 := reboot()
	t.Cleanup(func() { shutdown(h3) })
	v := viewOf(h3, s3)
	if v.Status != StatusLive || v.Events != uint64(2*third) {
		t.Fatalf("recovered from the mixed spool: %s at event %d, want live at %d", v.Status, v.Events, 2*third)
	}
	if v.ResumedFrom == 0 {
		t.Fatal("second recovery did not resume from a checkpoint")
	}
	feedChunks(t, s3, frameEvents(t, tr, int(v.Events)), 0)
	view, err := h3.CloseStream(s3.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(view.Result.Reports))
	for i := range view.Result.Reports {
		got[i] = view.Result.Reports[i].String()
	}
	assertSameReports(t, "session recovered from a version-1 spool", got, want)
}
