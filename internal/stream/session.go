package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/tools"
	"repro/internal/trace"
)

// batchCap bounds how many accepted events a session decodes into its
// driver's window before it spools their frames in one write and replays
// them. The window's columns and the frames are per-session memory; 256
// also replayed faster than 1024.
const batchCap = 256

// Session is one live ingestion stream: sequential replay with the trace
// still arriving. Framed chunks are decoded as they come, each event
// checked against the sequence-number protocol and decoded straight into
// the window of the replay driver every batch replay uses, which replays
// it in small batches. At most one ingest request feeds a session at a
// time (StartIngest/Feed/FinishIngest/EndIngest); findings reads and Stop
// may race freely with the feed.
type Session struct {
	id string
	o  Options

	mu     sync.Mutex
	status Status
	// released is set when the owner shuts down: the spool is closed and
	// ingest refused, while the session stays journaled live.
	released bool
	// run is the live analysis, and frames the buffer that feeds the
	// spool. Both are dropped when the session stops, and are nil for
	// sessions recovered as history. The run's driver holds the stream
	// position, the latest checkpoint boundary and, in its window, the
	// accepted events not yet spooled and replayed; s.mu orders its calls,
	// which run on whichever goroutine feeds.
	run *tools.Run
	// frames holds the frames of the window's events as they arrived, for
	// the spool.
	frames []byte
	// reports holds a failed or evicted session's findings once its
	// analyzer is dropped, and summary a done session's.
	reports []report.Report
	summary *tools.Summary
	// dec decodes the current ingest request's body; each request carries a
	// complete framed stream (header plus frames), so every request gets a
	// fresh decoder and duplicate events are skipped by sequence number.
	dec  *trace.PushDecoder
	busy bool
	// events is the number of events applied. Outside Feed it is also the
	// sequence number the session expects next: clients resume by
	// re-sending from it.
	events       uint64
	bytes        int64
	resumedFrom  uint64
	checkpointed uint64
	spool        *journal.StreamWriter
	// notify is closed and replaced whenever findings may have grown or the
	// status changed; long-pollers re-check after each close.
	notify     chan struct{}
	lastActive time.Time
}

// New builds a live session that analyzes with the named tool through one
// run (tools.NewRun), resumed from ck when it is a checkpoint of that tool,
// so the owner opens and resumes a session alike. restoreErr is a
// checkpoint that did not restore, for the owner to count and log; err is
// set only when the tool cannot be built.
func New(id, tool string, opts tools.Options, ck *trace.Checkpoint, o Options) (s *Session, restoreErr, err error) {
	s = &Session{
		id: id, o: o, status: StatusLive,
		notify:     make(chan struct{}),
		lastActive: time.Now(),
	}
	ro := tools.RunOptions{Options: opts, ID: id, From: ck}
	if o.Journal != nil {
		ro.CheckpointEvery, ro.Checkpoint = o.CheckpointEvery, s.checkpoint
	}
	if s.run, err = tools.NewRun(tool, ro); err != nil {
		return nil, nil, err
	}
	s.events = s.run.Start
	s.resumedFrom = s.events
	return s, s.run.RestoreErr, nil
}

// Settled rebuilds a session that ended in an earlier life of the daemon:
// it takes no ingest, reports the events and bytes it had when it stopped,
// and serves the findings it kept: a done session's summary, a failed or
// evicted one's reports.
func Settled(id string, status Status, sum *tools.Summary, reports []report.Report, events uint64, bytes int64) *Session {
	return &Session{id: id, status: status, summary: sum, reports: reports, events: events, bytes: bytes, notify: make(chan struct{})}
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// CreateSpool starts a new session's spool with the framed-format header,
// fsynced, so the spool is a valid stream from its first byte. Call it
// before the session is published, after the owner journaled the record.
func (s *Session) CreateSpool() (err error) {
	s.spool, err = newSpool(s.o.Journal, s.id)
	return err
}

// newSpool opens a session's spool for appending and writes the
// framed-format header, fsynced.
func newSpool(j *journal.Journal, id string) (*journal.StreamWriter, error) {
	w, err := j.OpenStreamBytes(id)
	if err != nil {
		return nil, err
	}
	if _, err = w.Write(trace.StreamHeader()); err == nil {
		err = w.Sync()
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// Progress snapshots how far the session has come.
func (s *Session) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLocked()
}

func (s *Session) progressLocked() Progress {
	p := Progress{Events: s.events, Bytes: s.bytes, ResumedFrom: s.resumedFrom, Checkpoint: s.checkpointed}
	switch {
	case s.run != nil:
		p.Findings = s.run.Analyzer.Sink().Count()
	case s.reports != nil:
		p.Findings = len(s.reports)
	case s.summary != nil:
		p.Findings = len(s.summary.Reports)
	}
	return p
}

// reportsLocked returns the session's findings in replay-clock order. Live
// sessions read the analyzer's sink — events dispatch sequentially with
// increasing clocks, so the list only ever appends and an integer cursor
// into it is stable. Stopped sessions serve what was kept when the
// analyzer was dropped: the summary's reports for a done session, the
// copied reports for a failed or evicted one.
func (s *Session) reportsLocked() []report.Report {
	switch {
	case s.run != nil:
		rs := s.run.Analyzer.Sink().Reports()
		out := make([]report.Report, len(rs))
		for i, r := range rs {
			out[i] = *r
		}
		return out
	case s.reports != nil:
		return s.reports
	case s.summary != nil:
		return s.summary.Reports
	}
	return nil
}

// notifyLocked wakes every long-poller; the caller must hold s.mu.
func (s *Session) notifyLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// IdleSince returns how long the session has been live with no ingest
// activity; zero for stopped sessions and sessions with a request attached
// (their liveness is the read deadline's problem).
func (s *Session) IdleSince(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status != StatusLive || s.busy {
		return 0
	}
	return now.Sub(s.lastActive)
}

// StartIngest attaches an ingest request to the session: exactly one at a
// time, each with a fresh decoder (every request body is a complete framed
// stream). Fails with ErrDraining, ErrTerminal, or ErrBusy.
func (s *Session) StartIngest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.released:
		return ErrDraining
	case s.status != StatusLive:
		return ErrTerminal
	case s.busy:
		return ErrBusy
	}
	s.busy = true
	s.dec = trace.NewPushDecoder(trace.Limits{})
	s.lastActive = time.Now()
	return nil
}

// EndIngest detaches the current ingest request and reports the session's
// progress as it detached. Always pairs with a successful StartIngest,
// whatever the request's fate — the session itself may live on for the
// client to resume.
func (s *Session) EndIngest() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy = false
	s.dec = nil
	s.lastActive = time.Now()
	return s.progressLocked()
}

// Feed decodes one chunk of the attached request's body and replays every
// completed event. Corruption, a limit breach, or an analyzer panic fails
// the session through Options.Fail (ErrBudget and a refused Charge do not:
// the caller decides, normally by evicting or retrying). Safe against
// concurrent findings reads and Stop, not against concurrent Feeds.
func (s *Session) Feed(chunk []byte) error {
	start := time.Now()
	s.mu.Lock()
	if s.status != StatusLive {
		s.mu.Unlock()
		return ErrTerminal
	}
	if s.dec == nil {
		s.mu.Unlock()
		return ErrBusy
	}
	if s.o.MaxBytes > 0 && s.bytes+int64(len(chunk)) > s.o.MaxBytes {
		s.mu.Unlock()
		return ErrBudget
	}
	// Charge the chunk before any state advances: a refusal leaves the
	// session live, and the bytes counted here are exactly those the owner
	// releases when the session stops.
	if s.o.Charge != nil {
		if err := s.o.Charge(int64(len(chunk))); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.bytes += int64(len(chunk))
	s.lastActive = start
	err := s.push(s.dec, chunk)
	if err == nil {
		s.notifyLocked()
	}
	s.mu.Unlock()
	s.o.Metrics.bytesTotal.Add(uint64(len(chunk)))
	s.o.Metrics.chunkDecode.Observe(time.Since(start).Seconds())
	if err != nil {
		s.fail(err)
	}
	return err
}

// FinishIngest declares the attached request's body cleanly finished. A
// torn final frame at a clean end-of-body is client corruption and fails
// the session; an empty body is a no-op (a liveness probe). Read errors
// mid-body must NOT come here — just EndIngest, and the session stays live
// for resume.
func (s *Session) FinishIngest() error {
	s.mu.Lock()
	dec := s.dec
	s.mu.Unlock()
	if dec == nil || (dec.Offset() == 0 && dec.Pending() == 0) {
		return nil
	}
	err := dec.Finish()
	if err != nil {
		s.fail(err)
	}
	return err
}

// fail hands an ingest failure to the owner, which ends the session.
func (s *Session) fail(err error) {
	if s.o.Fail != nil {
		s.o.Fail(err)
	}
}

// push decodes data through dec into the driver's window and replays the
// events it accepts, those accepted before an error included. Runs under
// s.mu (Feed) or single-threaded during recovery.
func (s *Session) push(dec *trace.PushDecoder, data []byte) (err error) {
	// The analyzer runs arbitrary VSM code; a panic must fail this session,
	// not the daemon — in recovery too, since a batch is spooled before it
	// is replayed.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: analyzer panic: %v", r)
		}
	}()
	err = dec.PushWindow(data, s.run.Driver, func(seq uint64) (bool, error) { return s.accept(dec, seq) })
	if ferr := s.flush(); err == nil {
		err = ferr
	}
	return err
}

// accept enforces the sequence-number protocol on one decoded event,
// reporting whether it joins the window, and flushes a full window first.
func (s *Session) accept(dec *trace.PushDecoder, seq uint64) (bool, error) {
	pending := s.run.Driver.WindowLen()
	next := s.events + uint64(pending)
	if seq < next {
		return false, nil // duplicate from a client resend: already applied
	}
	if seq > next {
		return false, &trace.CorruptionError{Offset: dec.Offset(), Reason: fmt.Sprintf("sequence gap: event %d arrived, session expects %d", seq, next)}
	}
	if m := s.o.MaxEvents; m > 0 && next >= uint64(m) {
		return false, fmt.Errorf("%w: more than %d events", trace.ErrTooManyEvents, m)
	}
	if pending == batchCap {
		if err := s.flush(); err != nil {
			return false, err
		}
	}
	if s.spool != nil {
		s.frames = append(s.frames, dec.Frame()...)
	}
	return true, nil
}

// flush appends the window's frames, as they arrived, to the spool in one
// write, then replays the window as the stream's next events. The driver
// checkpoints by batch replay's rule, at batch replay's boundaries, and a
// checkpoint never outruns the spool: the whole window is written before
// any of it is replayed, and a window that was not written is dropped.
func (s *Session) flush() error {
	d := s.run.Driver
	if d.WindowLen() == 0 {
		return nil
	}
	frames := s.frames
	s.frames = frames[:0]
	if s.spool != nil {
		if _, err := s.spool.Write(frames); err != nil {
			d.ClearWindow()
			return fmt.Errorf("stream: spool append: %w", err)
		}
	}
	if err := faultinject.Fire("stream.replay"); err != nil {
		d.ClearWindow()
		return err
	}
	st, err := d.ReplayWindow(context.Background())
	s.events += st.Events
	s.o.Metrics.eventsTotal.Add(st.Events)
	return err
}

// checkpoint is the run's checkpoint callback: spool fsync first
// (checkpointed progress must never outrun replayable bytes), then the
// run's checkpoint, then its atomic write. A session re-feeding its spool
// in recovery has no spool writer yet and takes no checkpoint. Failures are
// counted and logged, never fatal — a checkpoint is an optimization — and,
// as in batch replay, the next one is due CheckpointEvery events later.
func (s *Session) checkpoint(take func() (*trace.Checkpoint, error)) error {
	if s.spool == nil {
		return nil
	}
	if err := s.spool.Sync(); err != nil {
		s.o.Metrics.ckptErrors.Inc()
		s.o.Logger.Error("spool fsync failed; skipping checkpoint", "phase", "checkpoint", "err", err)
		return nil
	}
	ck, err := take()
	if err != nil {
		s.o.Metrics.ckptErrors.Inc()
		s.o.Logger.Error("checkpoint state capture failed", "phase", "checkpoint", "err", err)
		return nil
	}
	if err := s.o.Journal.WriteCheckpoint(ck); err != nil {
		s.o.Metrics.ckptErrors.Inc()
		s.o.Logger.Error("checkpoint write failed", "phase", "checkpoint", "err", err)
		return nil
	}
	s.o.Metrics.checkpoints.Inc()
	s.checkpointed = ck.NextEvent
	return nil
}

// Refeed rebuilds a recovered session from its spooled bytes, then reopens
// the spool for appending. The bytes go through a fresh decoder and the
// session's own path, with no spool writer and so no checkpoints; events
// below the checkpoint-restored position are skipped by sequence number. A
// torn tail — the expected damage from a crash mid-append — is truncated
// off; any other corruption is returned. Runs before the session is
// published.
func (s *Session) Refeed(data []byte) error {
	dec := trace.NewPushDecoder(trace.Limits{})
	if err := s.push(dec, data); err != nil {
		return err
	}
	if ferr := dec.Finish(); ferr != nil {
		off := dec.Offset()
		if off < int64(len(trace.StreamHeader())) {
			off = 0
		}
		if err := s.o.Journal.TruncateStreamBytes(s.id, off); err != nil {
			return err
		}
		if off == 0 {
			// Not even a whole header survived; restart the spool so future
			// appends form a valid stream.
			w, err := newSpool(s.o.Journal, s.id)
			if err != nil {
				return err
			}
			w.Close()
		}
		s.o.Logger.Warn("truncated torn spool tail",
			"phase", "recovery", "spool_bytes", len(data), "kept", off)
	}
	s.bytes = dec.Offset()
	w, err := s.o.Journal.OpenStreamBytes(s.id)
	if err != nil {
		return err
	}
	s.spool = w
	return nil
}

// Stop ends ingest for good, exactly once: the session goes to status
// (done when its client closed it, else failed or evicted), drops its run,
// wakes long-pollers and closes its spool. A done session keeps its run's
// summary, and returns it; a failed or evicted one keeps the findings so
// far. A summary that panics is confined like a job's: the session fails
// instead, with no findings, and Stop returns the panic (tools.ErrPanicked).
// The progress returned is final: its Bytes are what the owner releases
// from its quota. Stop fails with ErrTerminal on a session already stopped
// and, for done, with ErrBusy while an ingest request is attached.
func (s *Session) Stop(status Status) (*tools.Summary, Progress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.status != StatusLive {
		return nil, Progress{}, ErrTerminal
	}
	var err error
	if status == StatusDone {
		if s.busy {
			return nil, Progress{}, ErrBusy
		}
		// The findings page of a session without findings lists [], not
		// null, as it did while the session was live.
		if s.summary, err = s.run.Finish(); err != nil {
			status, s.reports = StatusFailed, []report.Report{}
		} else if s.summary.Reports == nil {
			s.summary.Reports = []report.Report{}
		}
	} else {
		s.reports = s.reportsLocked()
	}
	// Only Finish releases the run's shadow state: a failed analyzer may be
	// mid-callback or corrupt, so it is left to the garbage collector.
	s.run, s.frames = nil, nil
	s.status = status
	s.notifyLocked()
	s.releaseSpoolLocked()
	return s.summary, s.progressLocked(), err
}

// Release closes the spool of a session whose owner is shutting down and
// refuses further ingest (ErrDraining). The session stays journaled live,
// so the next life of the daemon resumes it.
func (s *Session) Release() {
	s.mu.Lock()
	s.released = true
	s.releaseSpoolLocked()
	s.mu.Unlock()
}

func (s *Session) releaseSpoolLocked() {
	if s.spool == nil {
		return
	}
	if err := s.spool.Sync(); err != nil {
		s.o.Logger.Error("spool fsync failed on release", "phase", "close", "err", err)
	}
	if err := s.spool.Close(); err != nil {
		s.o.Logger.Error("spool close failed", "phase", "close", "err", err)
	}
	s.spool = nil
}

// Findings returns the session's findings from the since cursor on.
func (s *Session) Findings(since int) FindingsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findingsLocked(since)
}

func (s *Session) findingsLocked(since int) FindingsView {
	all := s.reportsLocked()
	if since < 0 {
		since = 0
	}
	if since > len(all) {
		since = len(all)
	}
	return FindingsView{
		ID: s.id, Status: s.status,
		Since: since, Next: len(all),
		Reports: all[since:],
	}
}

// WaitFindings long-polls: it returns as soon as the session has findings
// past the since cursor or stops, or when wait (or ctx) expires — then with
// an empty page the client re-polls from. The notify channel is
// snapshotted before the findings are read, so a report arriving between
// the read and the wait still wakes this poller.
func (s *Session) WaitFindings(ctx context.Context, since int, wait time.Duration) FindingsView {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		s.mu.Lock()
		ch := s.notify
		fv := s.findingsLocked(since)
		terminal := s.status != StatusLive
		s.mu.Unlock()
		if len(fv.Reports) > 0 || terminal || wait <= 0 {
			return fv
		}
		select {
		case <-ctx.Done():
			return fv
		case <-timer.C:
			return fv
		case <-ch:
		}
	}
}
