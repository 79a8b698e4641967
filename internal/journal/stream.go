// Stream sessions: the write-ahead spool for live ingestion.
//
// A streaming session has no finished trace to write ahead — its events
// arrive over the wire for minutes or hours. Its record (Append with
// Record.Session) therefore starts with an empty <id>.trace, which the
// session grows through a StreamWriter as it accepts events: the
// framed-format header, then the frames of every accepted event as they
// arrived, fsynced before each checkpoint (so a checkpoint never claims
// events the spool cannot replay). Its <id>.meta is born "live" and ends
// done, failed or evicted; its <id>.ckpt is the analyzer checkpoint.
//
// Recover returns a live session with its spooled bytes and latest
// checkpoint so the service can rebuild the analyzer (restore the
// checkpoint, re-feed the spooled suffix) and leave the session open for
// the client to resume. The wire format's own CRC framing makes the spool
// self-verifying: a torn tail from a crash mid-append is detected by the
// push decoder, and the session truncates it off with TruncateStreamBytes —
// the client re-sends from the last acknowledged event, exactly as it
// would after a network drop.
package journal

import (
	"errors"
	"os"
	"path/filepath"
)

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
// Remove.
func (w *StreamWriter) Close() error { return w.f.Close() }

// Size returns the current spool length in bytes.
func (w *StreamWriter) Size() (int64, error) {
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OpenStreamBytes opens a session's spool for appending: after Append
// journaled a new session, or after a recovered one re-fed its spool.
func (j *Journal) OpenStreamBytes(id string) (*StreamWriter, error) {
	f, err := os.OpenFile(j.tracePath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &StreamWriter{j: j, f: f}, nil
}

// TruncateStreamBytes cuts the session's spool to size bytes — the repair
// for a torn tail (crash mid-append): the push decoder reports the offset
// of the last whole frame, and everything after it is unusable.
func (j *Journal) TruncateStreamBytes(id string, size int64) error {
	return os.Truncate(j.tracePath(id), size)
}

// legacyMetaSuffix names a session's meta log in the layout before jobs
// and sessions shared one record; its spool was <id>.sbytes.
const legacyMetaSuffix = ".smeta"

// migrate renames a session spooled in the older layout into the current
// one: <id>.sbytes to <id>.trace, then <id>.smeta to <id>.meta. The bytes
// move first and the directory is synced before the meta log moves, so a
// crash between the renames leaves a layout the next scan finishes.
func (j *Journal) migrate(id string) error {
	err := os.Rename(filepath.Join(j.dir, id+".sbytes"), j.tracePath(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	return os.Rename(filepath.Join(j.dir, id+legacyMetaSuffix), j.metaPath(id))
}
