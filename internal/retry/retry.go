// Package retry implements the client-side half of arbalestd's
// fault-tolerance story: capped exponential backoff with full jitter, a
// wall-clock retry budget, Retry-After honoring for 429/503 responses,
// and idempotency keys so a retried upload is deduplicated server-side
// instead of analyzed twice.
//
// The generic entry point is Policy.Do; HTTP helpers classify responses
// (Classify, RetryAfter, StatusRetryable) and NewKey mints idempotency
// keys.
package retry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	mathrand "math/rand"
	"net/http"
	"strconv"
	"time"
)

// IdempotencyHeader is the HTTP request header carrying the client's
// idempotency key; arbalestd deduplicates submissions on it.
const IdempotencyHeader = "Idempotency-Key"

// Policy configures Do. The zero value gives 4 attempts, 100ms base
// delay doubling to a 5s cap, full jitter, and a 30s overall budget.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 4). Zero or negative means the default.
	MaxAttempts int
	// BaseDelay is the pre-jitter delay after the first failure
	// (default 100ms); it doubles each attempt up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff (default 5s).
	MaxDelay time.Duration
	// Budget bounds total wall time across all attempts and sleeps
	// (default 30s; negative disables the budget).
	Budget time.Duration
	// Rand supplies jitter; nil uses a private source. Tests inject a
	// seeded source for determinism.
	Rand *mathrand.Rand
	// Sleep replaces time.Sleep in tests; nil uses a context-aware
	// sleep.
	Sleep func(time.Duration)
	// Now replaces time.Now in tests.
	Now func() time.Time
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Budget == 0 {
		p.Budget = 30 * time.Second
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns it as-is.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// afterError carries a server-directed minimum delay (Retry-After).
type afterError struct {
	err   error
	after time.Duration
}

func (e *afterError) Error() string { return e.err.Error() }
func (e *afterError) Unwrap() error { return e.err }

// After wraps a retryable err with a server-directed minimum delay
// before the next attempt (a parsed Retry-After header).
func After(err error, d time.Duration) error {
	if err == nil {
		return nil
	}
	return &afterError{err: err, after: d}
}

// ErrBudgetExhausted wraps the last attempt's error when the policy's
// attempt count or time budget runs out.
var ErrBudgetExhausted = errors.New("retry: budget exhausted")

// Do runs f until it succeeds, returns a Permanent error, exhausts
// MaxAttempts, or the budget/context expires. Between failures it sleeps
// base*2^attempt with full jitter, never less than a server-directed
// After delay. The returned error is the last attempt's error, wrapped
// with ErrBudgetExhausted when retries ran out.
func (p Policy) Do(ctx context.Context, f func(attempt int) error) error {
	p = p.withDefaults()
	start := p.Now()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		lastErr = f(attempt)
		if lastErr == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(lastErr, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %w (context: %w)", ErrBudgetExhausted, lastErr, ctx.Err())
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		d := p.backoff(attempt)
		var ae *afterError
		if errors.As(lastErr, &ae) && ae.after > d {
			d = ae.after
		}
		if p.Budget > 0 && p.Now().Add(d).Sub(start) > p.Budget {
			return fmt.Errorf("%w after %v: %w", ErrBudgetExhausted, p.Now().Sub(start), lastErr)
		}
		if p.Sleep != nil {
			p.Sleep(d)
		} else {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("%w: %w (context: %w)", ErrBudgetExhausted, lastErr, ctx.Err())
			}
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, p.MaxAttempts, lastErr)
}

// backoff returns the jittered delay for the given zero-based attempt:
// uniform in (0, min(MaxDelay, BaseDelay*2^attempt)] — "full jitter",
// which decorrelates a thundering herd of retrying clients.
func (p Policy) backoff(attempt int) time.Duration {
	ceil := float64(p.BaseDelay) * math.Pow(2, float64(attempt))
	if m := float64(p.MaxDelay); ceil > m {
		ceil = m
	}
	var u float64
	if p.Rand != nil {
		u = p.Rand.Float64()
	} else {
		u = mathrand.Float64()
	}
	d := time.Duration(u * ceil)
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// StatusRetryable reports whether an HTTP status is worth retrying:
// 429 (queue full), 503 (shutting down / not ready), and 5xx transport
// or gateway hiccups. 4xx validation failures are permanent.
func StatusRetryable(status int) bool {
	switch {
	case status == http.StatusTooManyRequests:
		return true
	case status >= 500:
		return true
	default:
		return false
	}
}

// Classify turns one HTTP answer into the error a Do attempt returns.
// decode reads the answer and closes its body, returning an error for a
// non-2xx status (the daemon's message, say) or a body it cannot read.
// That error is retried after the answer's Retry-After when the status is
// retryable (see StatusRetryable), is Permanent for any other non-2xx
// status, and is returned as it is for a 2xx answer, so a decode can mark
// its own failures Permanent or leave them retryable.
func Classify(resp *http.Response, decode func(*http.Response) error) error {
	err := decode(resp)
	switch {
	case err == nil || resp.StatusCode/100 == 2:
		return err
	case StatusRetryable(resp.StatusCode):
		return After(err, RetryAfter(resp))
	default:
		return Permanent(err)
	}
}

// RetryAfter parses a response's Retry-After header as delay seconds or
// an HTTP date, returning 0 when absent or unparseable.
func RetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// NewKey mints a random idempotency key for one logical submission; all
// retries of that submission send the same key.
func NewKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived key rather than aborting the upload.
		return fmt.Sprintf("key-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
