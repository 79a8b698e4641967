// Package journal is arbalestd's write-ahead spool: a directory that makes
// accepted jobs and live stream sessions survive a daemon crash.
//
// A job and a stream session are one kind of record, with up to three
// files under the spool directory:
//
//	<id>.trace  the record's trace in the CRC32C-framed encoding. A job's
//	            is written whole and fsynced before the job is acknowledged
//	            (the write-ahead part): a framed version-2 upload byte for
//	            byte, any other upload re-encoded as version 2. A session's
//	            starts empty and grows through a StreamWriter: the header,
//	            then the frames of the events it accepted, as they arrived.
//	<id>.meta   an append-only log of lifecycle transitions. The first line
//	            carries the record's identity (tool, events, idempotency
//	            key, traceparent, tenant, submit time) and a first status
//	            that tells the kinds apart: "pending" for a job, "live" for
//	            a session. Later lines record running/done/failed (and, for
//	            a session, evicted) transitions. Each line is CRC-framed:
//	            "c2 <crc32c-hex8> <json>\n" (bare legacy JSON lines are
//	            still accepted on read)
//	<id>.ckpt   the record's latest replay checkpoint (trace.Checkpoint),
//	            written atomically at epoch boundaries while it runs
//
// Append creates a record, Mark moves it, Remove deletes all three files
// (retention GC, a session's abort), and Recover reads every record back
// in one scan of the spool. Pending and running jobs come back with their
// traces and live sessions with their spooled bytes, each with its latest
// valid checkpoint when one exists, so the service re-enqueues each job
// exactly once and resumes each session where the crash cut it off. Terminal records come back as history (without traces), so
// listings and idempotency-key dedup survive the restart. A session
// spooled in the older layout (<id>.smeta, <id>.sbytes) is renamed into
// this one by the scan.
//
// Corruption tolerance: a torn trailing meta line (crash mid-append) is
// truncated off and counted, not fatal; a corrupt line in the middle of a
// meta log (bit rot) is skipped and counted, so the entries after it still
// apply; a corrupt checkpoint is dropped and counted — the record re-runs
// from its trace, which is always correct, just slower.
//
// Fault points (package faultinject): "journal.append" and "journal.mark"
// can inject write errors into either kind of record, "journal.fsync" can
// inject fsync latency, and "journal.checkpoint" can inject
// checkpoint-write errors or latency.
package journal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// The lifecycle statuses a journal records. They mirror the service's job
// and stream session states but are kept as plain strings so the journal
// stays a layer below the service. A job is born pending and a session
// live; evicted is a session's terminal status when the server, not the
// client, ended it (idle, slow consumer, or budget breach).
const (
	StatusPending = "pending"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusLive    = "live"
	StatusEvicted = "evicted"
)

// Entry is one line of a record's meta log. The first line of a file
// carries the record's identity and its first status, pending or live;
// later lines only need Status plus the terminal fields.
type Entry struct {
	ID   string `json:"id,omitempty"`
	Tool string `json:"tool,omitempty"`
	Key  string `json:"key,omitempty"` // idempotency key, optional
	// Traceparent is the W3C traceparent of the record's root span. A
	// session journaled before the field existed kept it in Key.
	Traceparent string    `json:"traceparent,omitempty"`
	Tenant      string    `json:"tenant,omitempty"` // owning tenant, "" for the default
	Events      int       `json:"events,omitempty"` // a job's trace length; on a session's terminal line, the events it applied
	Submitted   time.Time `json:"submitted,omitempty"`
	// DeadlineMs is the client-propagated completion deadline in Unix
	// milliseconds, 0 when none — persisted so a recovered job can still
	// be shed instead of replayed when its deadline already passed.
	DeadlineMs int64           `json:"deadlineMs,omitempty"`
	Status     string          `json:"status"`
	Time       time.Time       `json:"time"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	// Bytes, on a session's terminal line, is the bytes it accepted.
	Bytes int64 `json:"bytes,omitempty"`
}

// Record identifies a job or a stream session at accept time.
type Record struct {
	ID   string
	Tool string
	Key  string // idempotency key, "" if the client sent none
	// Traceparent is the record's own W3C trace context, "" when untraced,
	// so a recovered job or session rejoins its trace.
	Traceparent string
	Tenant      string // owning tenant, "" for the default tenant
	Events      int    // a job's trace length; a settled session's applied events
	Submitted   time.Time
	Deadline    time.Time // client-propagated completion deadline, zero when none
	// Session marks a stream session's record: it is born live and its
	// trace grows through a StreamWriter.
	Session bool
}

// RecoveredJob is one record, a job or a stream session, found in the
// spool by Recover.
type RecoveredJob struct {
	Record
	// Status is the record's last journaled status. Pending and running
	// jobs carry a Trace, live sessions carry Bytes; terminal records
	// carry Error/Result instead.
	Status string
	Trace  *trace.Trace
	// Bytes is a live session's spool as it is on disk: the header and
	// accepted frames, possibly ending in a torn frame recovery truncates.
	Bytes    []byte
	Started  time.Time
	Finished time.Time
	Error    string
	Result   json.RawMessage
	// Checkpoint is the record's latest valid replay checkpoint, nil when
	// none was written or the file failed its CRC check (then the record
	// simply re-runs from event zero).
	Checkpoint *trace.Checkpoint
	// Accepted is the bytes a settled session accepted, from its terminal
	// mark; 0 when the mark carries no counts.
	Accepted int64
}

// RecoverStats counts the corruption Recover repaired while scanning the
// spool. The service folds these into its metrics.
type RecoverStats struct {
	// TruncatedRecords is the number of torn or corrupt meta lines dropped:
	// torn trailing lines are truncated off the file, corrupt mid-file
	// lines are skipped.
	TruncatedRecords int
	// DroppedCheckpoints is the number of checkpoint files discarded
	// because they failed CRC or sanity checks.
	DroppedCheckpoints int
}

// Journal persists the traces and lifecycle transitions of jobs and
// stream sessions under one spool directory. Methods are safe for
// concurrent use on distinct record IDs; the service serializes
// transitions for a single job by construction (a job is owned by one
// worker at a time), and a session's owner does the same.
//
// The journal additionally tracks whether the spool is writable: any append,
// mark, or checkpoint write failure (ENOSPC, a yanked disk, an injected
// fault) flips an unwritable flag, and Writable probes the directory before
// reporting healthy again. The daemon's /readyz degrades to 503 while the
// spool is unwritable, so load balancers shed traffic from an instance that
// can no longer honor the write-ahead contract — each individual failure
// still fails only the job or session that hit it, never the process.
type Journal struct {
	dir string

	// writable is false after a spool write failure until a probe write
	// succeeds. Stored inverted (0 = writable) so the zero value of the
	// field matches a freshly opened, healthy journal.
	unwritable atomic.Bool
}

// Open creates the spool directory if needed and returns a Journal over
// it.
func Open(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("journal: empty spool directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the spool directory path.
func (j *Journal) Dir() string { return j.dir }

func (j *Journal) tracePath(id string) string { return filepath.Join(j.dir, id+".trace") }
func (j *Journal) metaPath(id string) string  { return filepath.Join(j.dir, id+".meta") }
func (j *Journal) ckptPath(id string) string  { return filepath.Join(j.dir, id+".ckpt") }

// noteWrite records the outcome of a spool write: a failure marks the spool
// unwritable (readiness degrades), a success marks it healthy again.
func (j *Journal) noteWrite(err error) {
	j.unwritable.Store(err != nil)
}

// Writable reports whether the spool directory is accepting writes. While
// the unwritable flag is set, each call attempts a small probe write (the
// probe honors the "journal.append" fault point, so an injected disk-full
// fault keeps the journal unhealthy exactly like a real full disk would);
// the flag clears as soon as a probe lands. The common healthy path is one
// atomic load.
func (j *Journal) Writable() bool {
	if !j.unwritable.Load() {
		return true
	}
	if err := j.probe(); err != nil {
		return false
	}
	j.unwritable.Store(false)
	return true
}

// probe attempts a tiny write-sync-remove cycle in the spool directory.
func (j *Journal) probe() error {
	if err := faultinject.Fire("journal.append"); err != nil {
		return err
	}
	path := filepath.Join(j.dir, ".probe")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}

// Append journals a newly accepted record: its trace file first, then the
// first meta entry, fsynced. A job's trace file is tr, written whole and
// fsynced; a session (rec.Session) passes a nil tr and gets an empty file
// that its StreamWriter grows. If any step fails the partial files are
// removed so a failed accept leaves no spool residue, and the caller must
// reject the submission — the write-ahead contract is that a job or
// session is only acknowledged after Append returns nil.
func (j *Journal) Append(rec Record, tr *trace.Trace) error {
	if err := faultinject.Fire("journal.append"); err != nil {
		j.noteWrite(err)
		return err
	}
	if err := j.writeTrace(rec.ID, tr); err != nil {
		j.removeFiles(rec.ID)
		return err
	}
	first := Entry{
		ID: rec.ID, Tool: rec.Tool, Key: rec.Key, Traceparent: rec.Traceparent, Tenant: rec.Tenant,
		Events: rec.Events, Submitted: rec.Submitted, DeadlineMs: deadlineMs(rec.Deadline),
		Status: StatusPending, Time: rec.Submitted,
	}
	if rec.Session {
		first.Status = StatusLive
	}
	if err := j.appendMeta(rec.ID, first); err != nil {
		j.removeFiles(rec.ID)
		return err
	}
	return nil
}

// Mark appends a lifecycle transition for the job or session. errMsg and
// result are only meaningful for the terminal statuses. A mark failure is
// not fatal — the caller logs it and continues — but a crash before a
// terminal mark means the job is re-run, or the session resumed live, on
// recovery: the at-least-once side of the write-ahead design (idempotency
// keys make a rerun invisible to clients).
func (j *Journal) Mark(id, status, errMsg string, result json.RawMessage) error {
	return j.mark(id, Entry{Status: status, Error: errMsg, Result: result})
}

// MarkSession is Mark for a stream session's terminal transition: it also
// journals the events the session applied and the bytes it accepted, which
// Recover hands back (RecoveredJob.Events and Accepted), so a settled
// session reads the same after a restart.
func (j *Journal) MarkSession(id, status, errMsg string, result json.RawMessage, events uint64, bytes int64) error {
	return j.mark(id, Entry{Status: status, Error: errMsg, Result: result, Events: int(events), Bytes: bytes})
}

func (j *Journal) mark(id string, e Entry) error {
	if err := faultinject.Fire("journal.mark"); err != nil {
		j.noteWrite(err)
		return err
	}
	e.Time = time.Now()
	return j.appendMeta(id, e)
}

// Remove deletes the record's spool files (retention GC, a session's
// abort).
func (j *Journal) Remove(id string) error {
	var firstErr error
	for _, p := range []string{j.tracePath(id), j.metaPath(id), j.ckptPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WriteCheckpoint atomically persists a record's latest replay checkpoint,
// replacing any previous one. Honors the "journal.checkpoint" fault point.
func (j *Journal) WriteCheckpoint(ck *trace.Checkpoint) error {
	if err := faultinject.Fire("journal.checkpoint"); err != nil {
		j.noteWrite(err)
		return err
	}
	encoded, err := ck.Encode()
	if err == nil {
		err = writeFileAtomic(j.ckptPath(ck.JobID), encoded)
	}
	j.noteWrite(err)
	return err
}

// ReadCheckpoint loads the record's checkpoint. os.ErrNotExist when none was
// written; *trace.CorruptionError when the file fails its CRC check.
func (j *Journal) ReadCheckpoint(id string) (*trace.Checkpoint, error) {
	data, err := os.ReadFile(j.ckptPath(id))
	if err != nil {
		return nil, err
	}
	return trace.DecodeCheckpoint(data)
}

// RemoveCheckpoint deletes the record's checkpoint file, if any (terminal
// records no longer need one).
func (j *Journal) RemoveCheckpoint(id string) error {
	if err := os.Remove(j.ckptPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Recover scans the spool directory once and reconstructs every journaled
// job and stream session from its meta log. Jobs whose last status is
// pending or running are loaded with their traces (ready to re-enqueue),
// live sessions with their spooled bytes (ready to resume), both with
// their latest valid checkpoint; terminal records are returned as history.
// A session in the older layout is renamed into the current one first.
// Records with unreadable meta or trace files are skipped and reported in
// the returned error list — recovery is best effort per record, never
// all-or-nothing — and the corruption repaired along the way (torn meta
// lines truncated, corrupt checkpoints dropped) is counted in
// RecoverStats. Results are sorted by ID so replay order is deterministic.
func (j *Journal) Recover() ([]RecoveredJob, RecoverStats, []error) {
	var stats RecoverStats
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, stats, []error{fmt.Errorf("journal: %w", err)}
	}
	var recs []RecoveredJob
	var errs []error
	for _, de := range entries {
		name := de.Name()
		// Subsystem logs share the spool and the framing but are not
		// record lifecycle logs; their owners recover them separately.
		if name == fleetFile || name == tenantFile {
			continue
		}
		id, ok := strings.CutSuffix(name, ".meta")
		if !ok {
			if id, ok = strings.CutSuffix(name, legacyMetaSuffix); !ok {
				continue
			}
			if err := j.migrate(id); err != nil {
				errs = append(errs, &JobError{ID: id, Err: err})
				continue
			}
		}
		rj, err := j.recoverOne(id, &stats)
		if err != nil {
			errs = append(errs, &JobError{ID: id, Err: err})
			continue
		}
		recs = append(recs, rj)
	}
	sort.Slice(recs, func(a, b int) bool {
		// Numeric-aware so job-10 sorts after job-9.
		x, y := recs[a].ID, recs[b].ID
		if len(x) != len(y) {
			return len(x) < len(y)
		}
		return x < y
	})
	return recs, stats, errs
}

// JobError is a recovery failure scoped to one spooled record, so callers
// can log its id as a structured attribute. Its message matches the
// historical "journal: job <id>: <cause>" format.
type JobError struct {
	ID  string
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("journal: job %s: %v", e.ID, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// deadlineMs converts a deadline to Unix milliseconds (0 for none).
func deadlineMs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// msToDeadline is the inverse of deadlineMs.
func msToDeadline(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}

// metaCRC is the CRC32C table framing meta lines.
var metaCRC = crc32.MakeTable(crc32.Castagnoli)

// metaFramePrefix opens a CRC-framed meta line: "c2 <crc32c-hex8> <json>".
const metaFramePrefix = "c2 "

// frameMetaLine wraps one marshaled entry in the CRC frame, newline
// included.
func frameMetaLine(payload []byte) []byte {
	out := make([]byte, 0, len(metaFramePrefix)+8+1+len(payload)+1)
	out = append(out, metaFramePrefix...)
	var sum [4]byte
	crc := crc32.Checksum(payload, metaCRC)
	sum[0], sum[1], sum[2], sum[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, ' ')
	out = append(out, payload...)
	return append(out, '\n')
}

// parseFramedPayload verifies one CRC-framed meta line and returns its
// payload. Bare lines without the frame prefix (the pre-framing format) are
// returned as-is. A false result means the frame is torn or corrupt.
func parseFramedPayload(raw []byte) ([]byte, bool) {
	if !bytes.HasPrefix(raw, []byte(metaFramePrefix)) {
		return raw, true
	}
	rest := raw[len(metaFramePrefix):]
	if len(rest) < 9 || rest[8] != ' ' {
		return nil, false
	}
	sum, err := hex.DecodeString(string(rest[:8]))
	if err != nil {
		return nil, false
	}
	payload := rest[9:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(payload, metaCRC) != want {
		return nil, false
	}
	return payload, true
}

// readMetaLog reads and repairs one meta log, returning its valid entries
// in order, with scanLog's repairs: a bad trailing line (crash mid-append)
// is truncated off the file, and a bad mid-file line is skipped so the
// entries after it still apply. Only an unreadable first line is fatal,
// since without it the record has no identity.
func readMetaLog(path string, stats *RecoverStats) ([]Entry, error) {
	var entries []Entry
	lines, err := scanLog(path, true, stats, func(payload []byte) bool {
		var e Entry
		if json.Unmarshal(payload, &e) != nil {
			return false
		}
		entries = append(entries, e)
		return true
	})
	if err != nil {
		return nil, err
	}
	if lines == 0 {
		return nil, errors.New("empty meta file")
	}
	return entries, nil
}

// recoverOne reads one record's meta log and, for a pending or running
// job or a live session, its trace and latest checkpoint.
func (j *Journal) recoverOne(id string, stats *RecoverStats) (RecoveredJob, error) {
	entries, err := readMetaLog(j.metaPath(id), stats)
	if err != nil {
		return RecoveredJob{}, err
	}

	var rj RecoveredJob
	for i, e := range entries {
		if i == 0 {
			if e.ID != id {
				return RecoveredJob{}, fmt.Errorf("meta identity %q does not match file %q", e.ID, id)
			}
			rj.Record = Record{
				ID: e.ID, Tool: e.Tool, Key: e.Key, Traceparent: e.Traceparent, Tenant: e.Tenant,
				Events: e.Events, Submitted: e.Submitted, Deadline: msToDeadline(e.DeadlineMs),
				Session: e.Status == StatusLive,
			}
			if rj.Session && rj.Traceparent == "" {
				rj.Traceparent, rj.Key = e.Key, ""
			}
		}
		rj.Status = e.Status
		switch e.Status {
		case StatusRunning:
			rj.Started = e.Time
		case StatusDone, StatusFailed, StatusEvicted:
			rj.Finished = e.Time
			rj.Error = e.Error
			rj.Result = e.Result
			if rj.Session {
				rj.Events, rj.Accepted = e.Events, e.Bytes
			}
		}
	}
	switch {
	case rj.Session && rj.Status == StatusLive:
		if rj.Bytes, err = os.ReadFile(j.tracePath(id)); err != nil {
			return RecoveredJob{}, err
		}
	case !rj.Session && (rj.Status == StatusPending || rj.Status == StatusRunning):
		if rj.Trace, err = j.Trace(id); err != nil {
			return RecoveredJob{}, err
		}
	default:
		return rj, nil
	}
	// A checkpoint is an optimization, never a requirement: a corrupt one
	// is dropped (and deleted, so it cannot fail again next boot) and the
	// record re-runs from its trace.
	if ck, err := j.ReadCheckpoint(id); err == nil {
		rj.Checkpoint = ck
	} else if !errors.Is(err, os.ErrNotExist) {
		stats.DroppedCheckpoints++
		_ = os.Remove(j.ckptPath(id))
	}
	return rj, nil
}

// writeTrace writes and fsyncs the job's trace file in the CRC32C-framed
// encoding, so later corruption of the spool is detected at read time
// instead of silently mis-parsing. A trace that kept the framed upload it
// was decoded from is written as those bytes; any other is encoded. A nil
// tr, a session's, leaves the file empty and unsynced: the session syncs
// it as it writes the header.
func (j *Journal) writeTrace(id string, tr *trace.Trace) (err error) {
	defer func() { j.noteWrite(err) }()
	f, err := os.OpenFile(j.tracePath(id), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if tr == nil {
		return f.Close()
	}
	if data := tr.Framed(); data != nil {
		_, err = f.Write(data)
	} else {
		err = tr.SaveFramed(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := j.sync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendMeta appends one fsynced CRC-framed entry line to the record's meta
// log.
func (j *Journal) appendMeta(id string, e Entry) error {
	return j.appendRecord(j.metaPath(id), e)
}

// appendRecord appends v, JSON-encoded, as one fsynced CRC-framed line to
// the log at path — a record's meta log, the fleet log or the tenant log —
// and records the outcome in the writable flag.
func (j *Journal) appendRecord(path string, v any) (err error) {
	defer func() { j.noteWrite(err) }()
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frameMetaLine(payload)); err != nil {
		f.Close()
		return err
	}
	if err := j.sync(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scanLog reads the CRC-framed line log at path and hands decode the
// payload of each nonblank line, in order; decode reports whether the
// payload parsed. A line failing its frame or decode is skipped and
// counted in stats.TruncatedRecords (stats may be nil), and when only
// blank space follows it — a torn append — the file is truncated to drop
// it. With firstFatal a bad first line is an error instead. scanLog
// returns the number of nonblank lines; a missing file is the ReadFile
// error.
func scanLog(path string, firstFatal bool, stats *RecoverStats, decode func(payload []byte) bool) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	lines := 0
	var off int64 // byte offset of the line being parsed
	for len(data) > 0 {
		raw := data
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			data = nil
		} else {
			raw, data = data[:nl], data[nl+1:]
		}
		lineOff := off
		off += int64(len(raw)) + 1
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		lines++
		if payload, ok := parseFramedPayload(raw); ok && decode(payload) {
			continue
		}
		if lines == 1 && firstFatal {
			return 0, fmt.Errorf("meta line 1 is torn or corrupt")
		}
		if stats != nil {
			stats.TruncatedRecords++
		}
		if len(bytes.TrimSpace(data)) == 0 {
			// Torn trailing record (crash mid-append): cut it off so the
			// next recovery — and any other reader — sees a clean log.
			if err := os.Truncate(path, lineOff); err != nil {
				return lines, fmt.Errorf("truncating torn meta record: %w", err)
			}
			break
		}
		// Corrupt line with valid records after it (bit rot): skip it but
		// keep applying the later ones, so a corrupt mid-file line cannot
		// silently resurrect an already-finished record.
	}
	return lines, nil
}

// writeFileAtomic durably replaces path with data: temp file in the same
// directory, fsync, atomic rename, directory fsync. A crash mid-write
// leaves either the previous file or the new one — never a torn file at
// the final path. Checkpoints and log compactions write through it.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	_ = syncDir(dir)
	return nil
}

// syncDir fsyncs a directory, so renames in it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// sync fsyncs f, honoring the injected fsync-latency fault point.
func (j *Journal) sync(f *os.File) error {
	if err := faultinject.Fire("journal.fsync"); err != nil {
		return err
	}
	return f.Sync()
}

// removeFiles best-effort deletes a record's spool files after a failed
// Append.
func (j *Journal) removeFiles(id string) {
	_ = os.Remove(j.tracePath(id))
	_ = os.Remove(j.metaPath(id))
}

// Trace re-reads a journaled job's trace from the spool: recovery's load,
// and tools that want to re-analyze history. The trace keeps a version-2
// file's bytes (Trace.Framed), so a worker fetch serves the file as it is.
func (j *Journal) Trace(id string) (*trace.Trace, error) {
	data, err := os.ReadFile(j.tracePath(id))
	if err != nil {
		return nil, err
	}
	return trace.Decode(data, trace.Limits{})
}
