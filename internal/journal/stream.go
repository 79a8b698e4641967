// Stream session journaling: the write-ahead spool for live ingestion.
//
// A streaming session has no finished trace to write ahead — its events
// arrive over the wire for minutes or hours. The journal therefore spools
// the session's raw wire bytes as they are accepted:
//
//	<id>.sbytes  the CRC32C-framed encoding of every event applied so far
//	             (one header, then one frame per event), appended in apply
//	             order and fsynced before each checkpoint (so a checkpoint
//	             never claims events the spool cannot replay)
//	<id>.smeta   the session's lifecycle log, same CRC-framed line format
//	             as a job's .meta: first line "live" with identity,
//	             later lines done/failed/evicted transitions
//	<id>.ckpt    the session's latest analyzer checkpoint, shared with the
//	             job machinery (stream IDs and job IDs never collide)
//
// On startup RecoverStreams returns every journaled session; live ones
// carry their spooled bytes and latest checkpoint so the stream hub can
// rebuild the analyzer (restore the checkpoint, re-feed the spooled suffix)
// and leave the session open for the client to resume. The wire format's
// own CRC framing makes the spool self-verifying: a torn tail from a crash
// mid-append is detected by the push decoder, and the hub truncates it off
// with TruncateStreamBytes — the client re-sends from the last acknowledged
// event, exactly as it would after a network drop.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// Stream lifecycle statuses, extending the job set. A live session is one
// that may still receive events; evicted is terminal, recording that the
// server — not the client — ended the session (idle, slow consumer, or
// budget breach).
const (
	StatusLive    = "live"
	StatusEvicted = "evicted"
)

func (j *Journal) smetaPath(id string) string  { return filepath.Join(j.dir, id+".smeta") }
func (j *Journal) sbytesPath(id string) string { return filepath.Join(j.dir, id+".sbytes") }

// StreamWriter appends a session's accepted wire bytes to its spool file.
// Not safe for concurrent use; a session owns its writer.
type StreamWriter struct {
	j *Journal
	f *os.File
}

// Write appends p to the spool. The bytes are durable only after Sync.
func (w *StreamWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

// Sync fsyncs the spool, honoring the "journal.fsync" fault point. Called
// before every checkpoint write so checkpointed progress never outruns the
// durable byte stream.
func (w *StreamWriter) Sync() error { return w.j.sync(w.f) }

// Close closes the spool file. The session's bytes stay on disk until
// RemoveStream.
func (w *StreamWriter) Close() error { return w.f.Close() }

// Size returns the current spool length in bytes.
func (w *StreamWriter) Size() (int64, error) {
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// AppendStream journals a newly accepted streaming session: an empty spool
// file plus the initial "live" meta entry, fsynced. Returns the writer the
// session appends wire bytes through. If any step fails the partial files
// are removed and the session must be rejected. Honors the
// "journal.stream.append" fault point.
func (j *Journal) AppendStream(rec Record) (*StreamWriter, error) {
	if err := faultinject.Fire("journal.stream.append"); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.sbytesPath(rec.ID), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	first := Entry{
		ID: rec.ID, Tool: rec.Tool, Key: rec.Key, Tenant: rec.Tenant,
		Submitted: rec.Submitted, Status: StatusLive, Time: rec.Submitted,
	}
	if err := j.appendRecord(j.smetaPath(rec.ID), first); err != nil {
		f.Close()
		j.removeStreamFiles(rec.ID)
		return nil, err
	}
	return &StreamWriter{j: j, f: f}, nil
}

// OpenStreamBytes reopens a recovered session's spool for appending, after
// the hub has re-fed the existing bytes through the analyzer.
func (j *Journal) OpenStreamBytes(id string) (*StreamWriter, error) {
	f, err := os.OpenFile(j.sbytesPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &StreamWriter{j: j, f: f}, nil
}

// TruncateStreamBytes cuts the session's spool to size bytes — the repair
// for a torn tail (crash mid-append): the push decoder reports the offset
// of the last whole frame, and everything after it is unusable.
func (j *Journal) TruncateStreamBytes(id string, size int64) error {
	return os.Truncate(j.sbytesPath(id), size)
}

// MarkStream appends a lifecycle transition for the session. As with job
// marks, a failure is not fatal — but a crash before a terminal mark means
// the session is recovered live, which is what resume wants. Honors the
// "journal.stream.mark" fault point.
func (j *Journal) MarkStream(id, status, errMsg string, result json.RawMessage) error {
	if err := faultinject.Fire("journal.stream.mark"); err != nil {
		return err
	}
	return j.appendRecord(j.smetaPath(id), Entry{
		Status: status, Time: time.Now(), Error: errMsg, Result: result,
	})
}

// RemoveStream deletes the session's spool files (retention GC or abort).
func (j *Journal) RemoveStream(id string) error {
	var firstErr error
	for _, p := range []string{j.sbytesPath(id), j.smetaPath(id), j.ckptPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// removeStreamFiles best-effort deletes a session's spool files after a
// failed AppendStream.
func (j *Journal) removeStreamFiles(id string) {
	_ = os.Remove(j.sbytesPath(id))
	_ = os.Remove(j.smetaPath(id))
}

// RecoveredStream is one streaming session found in the spool by
// RecoverStreams.
type RecoveredStream struct {
	Record
	// Status is the session's last journaled status. Live sessions carry
	// Bytes (the spooled wire stream) and, when one was written, Checkpoint;
	// terminal sessions carry Error/Result instead.
	Status   string
	Bytes    []byte
	Finished time.Time
	Error    string
	Result   json.RawMessage
	// Checkpoint is the session's latest valid analyzer checkpoint, nil when
	// none was written or the file failed its CRC check (then the session
	// re-feeds its whole spool, which is always correct, just slower).
	Checkpoint *trace.Checkpoint
}

// RecoverStreams scans the spool for journaled streaming sessions, the
// stream-side twin of Recover. Live sessions are returned with their
// spooled bytes and latest valid checkpoint so the hub can rebuild them;
// terminal sessions are history. Per-session failures land in the error
// list, repaired corruption in RecoverStats. Results are sorted by ID.
func (j *Journal) RecoverStreams() ([]RecoveredStream, RecoverStats, []error) {
	var stats RecoverStats
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, stats, []error{fmt.Errorf("journal: %w", err)}
	}
	var streams []RecoveredStream
	var errs []error
	for _, de := range entries {
		name := de.Name()
		if !strings.HasSuffix(name, ".smeta") {
			continue
		}
		id := strings.TrimSuffix(name, ".smeta")
		rs, err := j.recoverOneStream(id, &stats)
		if err != nil {
			errs = append(errs, &JobError{ID: id, Err: err})
			continue
		}
		streams = append(streams, rs)
	}
	sort.Slice(streams, func(a, b int) bool {
		x, y := streams[a].ID, streams[b].ID
		if len(x) != len(y) {
			return len(x) < len(y)
		}
		return x < y
	})
	return streams, stats, errs
}

// recoverOneStream reads one session's meta log and, for live sessions,
// its spooled bytes and latest checkpoint.
func (j *Journal) recoverOneStream(id string, stats *RecoverStats) (RecoveredStream, error) {
	entries, err := readMetaLog(j.smetaPath(id), stats)
	if err != nil {
		return RecoveredStream{}, err
	}
	var rs RecoveredStream
	for i, e := range entries {
		if i == 0 {
			if e.ID != id {
				return RecoveredStream{}, fmt.Errorf("meta identity %q does not match file %q", e.ID, id)
			}
			rs.Record = Record{ID: e.ID, Tool: e.Tool, Key: e.Key, Tenant: e.Tenant, Submitted: e.Submitted}
		}
		rs.Status = e.Status
		switch e.Status {
		case StatusDone, StatusFailed, StatusEvicted:
			rs.Finished = e.Time
			rs.Error = e.Error
			rs.Result = e.Result
		}
	}
	if rs.Status == StatusLive {
		data, err := os.ReadFile(j.sbytesPath(id))
		if err != nil {
			return RecoveredStream{}, err
		}
		rs.Bytes = data
		if ck, err := j.ReadCheckpoint(id); err == nil {
			rs.Checkpoint = ck
		} else if !errors.Is(err, os.ErrNotExist) {
			stats.DroppedCheckpoints++
			_ = os.Remove(j.ckptPath(id))
		}
	}
	return rs, nil
}
