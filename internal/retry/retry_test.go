package retry

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fixed builds a deterministic policy that records sleeps instead of
// sleeping.
func fixed(attempts int) (Policy, *[]time.Duration) {
	var sleeps []time.Duration
	p := Policy{
		MaxAttempts: attempts,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Budget:      -1,
		Rand:        rand.New(rand.NewSource(7)),
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	return p, &sleeps
}

func TestSucceedsAfterTransientFailures(t *testing.T) {
	p, sleeps := fixed(5)
	calls := 0
	err := p.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls %d, want 3", calls)
	}
	if len(*sleeps) != 2 {
		t.Errorf("slept %d times, want 2", len(*sleeps))
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	p, sleeps := fixed(5)
	boom := errors.New("400 bad trace")
	calls := 0
	err := p.Do(context.Background(), func(int) error {
		calls++
		return Permanent(boom)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want %v", err, boom)
	}
	if calls != 1 || len(*sleeps) != 0 {
		t.Errorf("calls %d sleeps %d, want 1 and 0", calls, len(*sleeps))
	}
}

func TestExhaustionWrapsLastError(t *testing.T) {
	p, _ := fixed(3)
	last := errors.New("still down")
	err := p.Do(context.Background(), func(int) error { return last })
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, last) {
		t.Fatalf("err %v, want ErrBudgetExhausted wrapping %v", err, last)
	}
}

func TestRetryAfterFloorsBackoff(t *testing.T) {
	p, sleeps := fixed(2)
	err := p.Do(context.Background(), func(attempt int) error {
		if attempt == 0 {
			return After(errors.New("429"), 2*time.Second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] < 2*time.Second {
		t.Errorf("sleeps %v, want one sleep >= Retry-After (2s)", *sleeps)
	}
}

func TestBudgetExpires(t *testing.T) {
	now := time.Unix(0, 0)
	p := Policy{
		MaxAttempts: 10,
		BaseDelay:   time.Second,
		MaxDelay:    time.Second,
		Budget:      2500 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(1)),
		Now:         func() time.Time { return now },
		Sleep:       func(d time.Duration) { now = now.Add(d) },
	}
	calls := 0
	err := p.Do(context.Background(), func(int) error {
		calls++
		now = now.Add(900 * time.Millisecond) // each attempt burns wall time
		return errors.New("slow failure")
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err %v, want budget exhaustion", err)
	}
	if calls >= 10 {
		t.Errorf("budget did not cut attempts short (calls=%d)", calls)
	}
}

func TestContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, Budget: -1}
	calls := 0
	err := p.Do(ctx, func(int) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if calls > 2 {
		t.Errorf("kept retrying after cancel (calls=%d)", calls)
	}
}

func TestStatusRetryable(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusAccepted:              false,
		http.StatusBadRequest:            false,
		http.StatusRequestEntityTooLarge: false,
		http.StatusTooManyRequests:       true,
		http.StatusInternalServerError:   true,
		http.StatusServiceUnavailable:    true,
	} {
		if got := StatusRetryable(status); got != want {
			t.Errorf("StatusRetryable(%d) = %v, want %v", status, got, want)
		}
	}
}

func TestRetryAfterHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set("Retry-After", "3")
	if d := RetryAfter(rec.Result()); d != 3*time.Second {
		t.Errorf("seconds form: %v, want 3s", d)
	}
	rec = httptest.NewRecorder()
	if d := RetryAfter(rec.Result()); d != 0 {
		t.Errorf("absent header: %v, want 0", d)
	}
	rec = httptest.NewRecorder()
	rec.Header().Set("Retry-After", "not-a-delay")
	if d := RetryAfter(rec.Result()); d != 0 {
		t.Errorf("garbage header: %v, want 0", d)
	}
}

func TestNewKeyUnique(t *testing.T) {
	a, b := NewKey(), NewKey()
	if a == b || len(a) != 32 {
		t.Errorf("keys %q, %q: want distinct 32-char keys", a, b)
	}
}

// TestClassify: a retryable status keeps decode's error retryable with the
// answer's Retry-After, another non-2xx status makes it permanent, and a
// 2xx answer passes decode's result through as it is.
func TestClassify(t *testing.T) {
	boom := errors.New("boom")
	answer := func(status int, retryAfter string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: status, Header: h}
	}
	fail := func(*http.Response) error { return boom }
	var perm *permanentError
	var after *afterError

	if err := Classify(answer(200, ""), func(*http.Response) error { return nil }); err != nil {
		t.Fatalf("2xx decoded: %v, want nil", err)
	}
	if err := Classify(answer(200, ""), fail); err != boom {
		t.Fatalf("2xx decode failure: %v, want the decode error as it is", err)
	}
	if err := Classify(answer(503, "3"), fail); !errors.As(err, &after) || after.after != 3*time.Second || errors.As(err, &perm) {
		t.Fatalf("503: %v, want retryable after 3s", err)
	}
	if err := Classify(answer(404, ""), fail); !errors.As(err, &perm) || !errors.Is(err, boom) {
		t.Fatalf("404: %v, want permanent", err)
	}
}
