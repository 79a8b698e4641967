package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// maxFindingsWait caps the ?wait= long-poll on the findings endpoint so a
// client cannot pin a handler goroutine indefinitely.
const maxFindingsWait = 30 * time.Second

// streamBufs recycles the ingest handler's 256 KiB read buffers; a fresh
// one per request was most of the bytes the stream path allocated.
// Session.Feed copies whatever it keeps, so a buffer is free again once
// its request is handled.
var streamBufs = sync.Pool{New: func() any {
	b := make([]byte, 256<<10)
	return &b
}}

// streamStatus maps a session error to its HTTP status.
func streamStatus(err error) int {
	switch {
	case errors.Is(err, errNoStream):
		return http.StatusNotFound
	case errors.Is(err, ErrStreamsSaturated),
		errors.Is(err, tenant.ErrThrottled),
		errors.Is(err, tenant.ErrStreamQuota),
		errors.Is(err, tenant.ErrByteQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, stream.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, stream.ErrBusy), errors.Is(err, stream.ErrTerminal):
		return http.StatusConflict
	case errors.Is(err, stream.ErrBudget):
		return http.StatusRequestEntityTooLarge
	default: // corrupt input, unknown tool, and other validation failures
		return http.StatusBadRequest
	}
}

// handleStreamOpen admits a new streaming session (POST /v1/streams) under
// the caller's tenant identity: the open spends a tenant rate-limit token
// and a concurrent-stream slot, and the refusal metrics account the attempt
// to exactly one of admitted, throttled, or rejected.
func (s *Service) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	toolName := r.URL.Query().Get("tool")
	if toolName == "" {
		toolName = "arbalest"
	}
	tname := s.tenants.Get(r.Header.Get(tenant.Header)).Name()
	view, err := s.OpenStream(toolName, r.Header.Get(telemetry.TraceparentHeader), tname)
	if err != nil {
		switch {
		case errors.Is(err, tenant.ErrThrottled):
			s.metrics.tenantThrottled.With(tname).Inc()
		case errors.Is(err, tenant.ErrStreamQuota), errors.Is(err, ErrStreamsSaturated):
			s.metrics.tenantRejected.With(tname, "streams").Inc()
		case errors.Is(err, tenant.ErrByteQuota):
			s.metrics.tenantRejected.With(tname, "bytes").Inc()
		}
		status := streamStatus(err)
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfterSeconds(err))
		}
		s.writeError(w, status, err)
		return
	}
	s.metrics.tenantAdmitted.With(view.Tenant).Inc()
	s.writeJSON(w, http.StatusCreated, view)
}

func (s *Service) handleStreamList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Streams []stream.View `json:"streams"`
	}{Streams: s.Streams()})
}

func (s *Service) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Stream(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errNoStream)
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}

// handleStreamEvents is the ingest endpoint: the request body is a complete
// framed event stream (header plus frames), read in chunks and decoded
// incrementally — the analyzer advances while the body is still arriving.
// Duplicate events from a client resume are skipped by sequence number, so
// re-POSTing a suffix (or the whole stream) after a disconnect is safe.
func (s *Service) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.startIngest(r.PathValue("id"))
	if err != nil {
		s.writeError(w, streamStatus(err), err)
		return
	}
	defer s.endIngest(j)
	sess := j.sess
	rc := http.NewResponseController(w)
	bp := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(bp)
	buf := *bp
	for {
		if s.cfg.StreamReadTimeout > 0 {
			// Rolling deadline: each chunk gets the full window, so a slow
			// consumer is detected without bounding total session length.
			_ = rc.SetReadDeadline(time.Now().Add(s.cfg.StreamReadTimeout))
		}
		if err := faultinject.Fire("stream.read"); err != nil {
			// Simulated mid-body disconnect: abandon the request exactly as a
			// dropped TCP connection would. The session stays live for resume.
			panic(http.ErrAbortHandler)
		}
		n, rerr := r.Body.Read(buf)
		if n > 0 {
			if ferr := sess.Feed(buf[:n]); ferr != nil {
				if errors.Is(ferr, stream.ErrBudget) {
					s.EvictStream(j.id, "budget")
				}
				status := streamStatus(ferr)
				if status == http.StatusTooManyRequests {
					// Tenant byte quota: shared occupancy that frees as the
					// tenant's other work drains. The session stays live and
					// the client re-sends the chunk after the hint.
					w.Header().Set("Retry-After", retryAfterSeconds(ferr))
				}
				s.writeError(w, status, ferr)
				return
			}
		}
		switch {
		case rerr == nil:
			continue
		case errors.Is(rerr, io.EOF):
			if ferr := sess.FinishIngest(); ferr != nil {
				s.writeError(w, http.StatusBadRequest, ferr)
				return
			}
			s.writeJSON(w, http.StatusOK, s.viewOf(j))
			return
		case isTimeout(rerr):
			// The client stopped sending but kept the connection open: a
			// slow consumer holding a session slot. Evict it.
			s.EvictStream(j.id, "slow")
			s.writeError(w, http.StatusRequestTimeout, fmt.Errorf("service: stream read timed out: %w", rerr))
			return
		default:
			// The connection died mid-body; there is usually nobody left to
			// answer. The session stays live and the client resumes from
			// View.Events on a fresh request.
			return
		}
	}
}

// isTimeout reports whether a body read failed by deadline rather than by
// disconnect.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleStreamClose finishes a session cleanly and returns its summary.
// Closing an already-terminal session is idempotent: it answers 200 with
// the settled view rather than an error, so a client retrying a close that
// raced a crash gets its result.
func (s *Service) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	view, err := s.CloseStream(r.PathValue("id"))
	switch {
	case err == nil, errors.Is(err, stream.ErrTerminal):
		s.writeJSON(w, http.StatusOK, view)
	default:
		s.writeError(w, streamStatus(err), err)
	}
}

// handleStreamAbort ends a session at the client's request and discards its
// journal state.
func (s *Service) handleStreamAbort(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.AbortStream(id)
	view, ok := s.Stream(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, errNoStream)
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}

// handleStreamFindings serves a session's findings from the ?since= cursor
// on. With ?wait=<duration> it long-polls: the response is held until a
// finding past the cursor arrives, the session goes terminal, or the wait
// (capped at 30s) expires — then with an empty page whose next cursor the
// client re-polls from.
func (s *Service) handleStreamFindings(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errNoStream)
		return
	}
	q := r.URL.Query()
	since := 0
	if v := q.Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad since cursor %q", v))
			return
		}
		since = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad wait duration %q", v))
			return
		}
		wait = min(d, maxFindingsWait)
	}
	if wait > 0 {
		s.writeJSON(w, http.StatusOK, sess.WaitFindings(r.Context(), since, wait))
		return
	}
	s.writeJSON(w, http.StatusOK, sess.Findings(since))
}
