// Package tenant is the multi-tenant isolation layer: a registry of named
// tenants, each with a token-bucket submission rate limit and concurrent
// job/stream/byte quotas, plus the weighted fair queue (fair.go) that
// replaces FIFO dispatch in the service and the coordinator, and the
// CoDel-style sojourn controller (codel.go) that sheds the newest work of
// the heaviest tenant when the queue delay stays above target.
//
// Identity is a caller-supplied string (the X-Arbalest-Tenant header or the
// client's -tenant flag); an empty name maps to DefaultName. Tenants are
// created on first use with the registry's default limits, so an unknown
// tenant is never rejected — it is merely subject to the defaults. To bound
// the registry against hostile identity floods, at most MaxTenants distinct
// names are tracked; past the cap new names collapse into the shared
// OverflowName tenant, mirroring the metric-cardinality cap in telemetry.
//
// The package depends only on the standard library, so every layer —
// service, stream, dist, journal — can import it without cycles.
package tenant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultName is the tenant an unidentified request is attributed to.
const DefaultName = "default"

// Header is the HTTP request header carrying the caller's tenant identity.
const Header = "X-Arbalest-Tenant"

// DeadlineHeader carries the client's completion deadline: either a Go
// duration relative to receipt ("30s") or an absolute RFC 3339 timestamp.
const DeadlineHeader = "X-Arbalest-Deadline"

// OverflowName is the shared tenant that absorbs identities past the
// registry cap, so a flood of fabricated names cannot grow state without
// bound (they all contend on one bucket, which is the point).
const OverflowName = "_overflow"

// MaxName bounds a tenant identity's length; longer names are truncated
// before lookup so an adversarial header cannot bloat keys or metric labels.
const MaxName = 64

// Limits are one tenant's isolation knobs. The zero value of any field
// means "unlimited" (and weight 0 means the default weight 1), so the zero
// Limits is a fully open tenant — backward compatible with the
// single-tenant daemon.
type Limits struct {
	// Weight is the tenant's share of weighted-fair dispatch: a tenant
	// with weight 2 is granted twice the queue slots and coordinator
	// leases per round-robin cycle as a tenant with weight 1. Values < 1
	// are treated as 1.
	Weight int `json:"weight,omitempty"`
	// Rate is the sustained admission rate in requests per second across
	// job submissions and stream opens, enforced by a token bucket.
	// <= 0 disables rate limiting.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket capacity — how many requests may arrive back to
	// back before the rate applies. <= 0 defaults to max(Rate, 1).
	Burst float64 `json:"burst,omitempty"`
	// MaxJobs caps the tenant's concurrently live (queued or running)
	// analysis jobs. <= 0 is unlimited.
	MaxJobs int `json:"maxJobs,omitempty"`
	// MaxStreams caps the tenant's concurrently live streaming sessions.
	// <= 0 is unlimited.
	MaxStreams int `json:"maxStreams,omitempty"`
	// MaxBytes caps the tenant's in-flight bytes (uploaded trace bodies of
	// live jobs plus spooled stream bytes). <= 0 is unlimited.
	MaxBytes int64 `json:"maxBytes,omitempty"`
}

// weight returns the effective WFQ weight (>= 1).
func (l Limits) weight() int {
	if l.Weight < 1 {
		return 1
	}
	return l.Weight
}

// burst returns the effective bucket capacity.
func (l Limits) burst() float64 {
	if l.Burst > 0 {
		return l.Burst
	}
	return math.Max(l.Rate, 1)
}

// Quota errors. All map to HTTP 429 at the service boundary; ErrThrottled
// additionally carries a Retry-After hint via ThrottledError.
var (
	// ErrThrottled marks a request rejected by the token bucket.
	ErrThrottled = errors.New("tenant: rate limit exceeded")
	// ErrJobQuota marks a submission over the concurrent-job quota.
	ErrJobQuota = errors.New("tenant: concurrent-job quota exceeded")
	// ErrStreamQuota marks a stream open over the concurrent-stream quota.
	ErrStreamQuota = errors.New("tenant: concurrent-stream quota exceeded")
	// ErrByteQuota marks a request over the in-flight byte quota.
	ErrByteQuota = errors.New("tenant: in-flight byte quota exceeded")
)

// ThrottledError wraps ErrThrottled with the earliest useful retry time,
// surfaced to clients as the 429 Retry-After header.
type ThrottledError struct {
	// Tenant is the throttled identity.
	Tenant string
	// RetryAfter is how long until the bucket refills one token.
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("tenant %q: rate limit exceeded, retry in %s", e.Tenant, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrThrottled) work.
func (e *ThrottledError) Unwrap() error { return ErrThrottled }

// Tenant is one identity's live state: its limits, token bucket, and quota
// occupancy. Obtain via Registry.Get; all methods are safe for concurrent
// use.
type Tenant struct {
	name string
	now  func() time.Time

	mu      sync.Mutex
	lim     Limits
	tokens  float64
	refill  time.Time
	jobs    int
	streams int
	bytes   int64
}

// Name returns the tenant's identity.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's effective WFQ weight (>= 1).
func (t *Tenant) Weight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lim.weight()
}

// Limits returns the tenant's current limits.
func (t *Tenant) Limits() Limits {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lim
}

// setLimits swaps the limits live. The bucket is clamped to the new burst
// so shrinking a quota takes effect immediately.
func (t *Tenant) setLimits(lim Limits) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lim = lim
	if b := lim.burst(); t.tokens > b {
		t.tokens = b
	}
}

// refillLocked advances the token bucket to now.
func (t *Tenant) refillLocked(now time.Time) {
	if t.lim.Rate <= 0 {
		return
	}
	if t.refill.IsZero() {
		t.refill = now
		t.tokens = t.lim.burst()
		return
	}
	if dt := now.Sub(t.refill); dt > 0 {
		t.tokens = math.Min(t.lim.burst(), t.tokens+t.lim.Rate*dt.Seconds())
		t.refill = now
	}
}

// Admit spends one token from the rate limiter. It returns nil when the
// request may proceed, or a *ThrottledError (wrapping ErrThrottled) whose
// RetryAfter says when a token will be available.
func (t *Tenant) Admit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.throttledLocked(); err != nil {
		return err
	}
	if t.lim.Rate > 0 {
		t.tokens--
	}
	return nil
}

// throttledLocked refills the bucket and returns the *ThrottledError a
// request would get now, nil when a whole token is there.
func (t *Tenant) throttledLocked() error {
	if t.lim.Rate <= 0 {
		return nil
	}
	t.refillLocked(t.now())
	if t.tokens >= 1 {
		return nil
	}
	wait := time.Duration((1 - t.tokens) / t.lim.Rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return &ThrottledError{Tenant: t.name, RetryAfter: wait}
}

// CheckJob reports, spending no token and taking no slot, why a job
// submission would be refused now: an empty token bucket (the
// *ThrottledError Admit would return) or full concurrent-job slots
// (ErrJobQuota). nil promises nothing; Admit and AcquireJob still decide.
func (t *Tenant) CheckJob() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.throttledLocked(); err != nil {
		return err
	}
	return t.jobSlotLocked()
}

// jobSlotLocked returns ErrJobQuota when every concurrent-job slot is
// taken.
func (t *Tenant) jobSlotLocked() error {
	if t.lim.MaxJobs > 0 && t.jobs >= t.lim.MaxJobs {
		return fmt.Errorf("tenant %q: %w (%d live)", t.name, ErrJobQuota, t.jobs)
	}
	return nil
}

// AcquireJob reserves one concurrent-job slot and nbytes of the byte quota,
// atomically — on failure nothing is held. Pair with ReleaseJob(nbytes)
// when the job reaches a terminal state.
func (t *Tenant) AcquireJob(nbytes int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.jobSlotLocked(); err != nil {
		return err
	}
	if t.lim.MaxBytes > 0 && t.bytes+nbytes > t.lim.MaxBytes {
		return fmt.Errorf("tenant %q: %w (%d + %d > %d)", t.name, ErrByteQuota, t.bytes, nbytes, t.lim.MaxBytes)
	}
	t.jobs++
	t.bytes += nbytes
	return nil
}

// Adopt charges a job slot and nbytes without enforcing quotas. Recovery
// re-attributes journaled jobs through it: an accepted job must never be
// dropped at restart, even if the tenant's quota shrank in the meantime —
// the occupancy is simply reported over quota until those jobs finish.
func (t *Tenant) Adopt(nbytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	t.bytes += nbytes
}

// AdoptStream charges a stream slot and nbytes without enforcing quotas —
// the stream counterpart of Adopt. Recovery re-attributes journaled live
// sessions through it: a session already admitted must never be dropped at
// restart, even if the tenant's quota shrank in the meantime.
func (t *Tenant) AdoptStream(nbytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.streams++
	t.bytes += nbytes
}

// ReleaseJob returns a job slot and its reserved bytes.
func (t *Tenant) ReleaseJob(nbytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs > 0 {
		t.jobs--
	}
	t.bytes -= nbytes
	if t.bytes < 0 {
		t.bytes = 0
	}
}

// AcquireStream reserves one concurrent-stream slot. Pair with
// ReleaseStream when the session leaves the live set.
func (t *Tenant) AcquireStream() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lim.MaxStreams > 0 && t.streams >= t.lim.MaxStreams {
		return fmt.Errorf("tenant %q: %w (%d live)", t.name, ErrStreamQuota, t.streams)
	}
	t.streams++
	return nil
}

// ReleaseStream returns a stream slot.
func (t *Tenant) ReleaseStream() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.streams > 0 {
		t.streams--
	}
}

// ReserveBytes charges n in-flight bytes against the byte quota (stream
// ingest paths call this incrementally as chunks arrive).
func (t *Tenant) ReserveBytes(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lim.MaxBytes > 0 && t.bytes+n > t.lim.MaxBytes {
		return fmt.Errorf("tenant %q: %w (%d + %d > %d)", t.name, ErrByteQuota, t.bytes, n, t.lim.MaxBytes)
	}
	t.bytes += n
	return nil
}

// ReleaseBytes returns n in-flight bytes.
func (t *Tenant) ReleaseBytes(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes -= n
	if t.bytes < 0 {
		t.bytes = 0
	}
}

// Usage is a point-in-time snapshot of one tenant's occupancy, rendered in
// /readyz detail and the tenants admin endpoint.
type Usage struct {
	Name    string `json:"name"`
	Weight  int    `json:"weight"`
	Jobs    int    `json:"jobs"`
	Streams int    `json:"streams"`
	Bytes   int64  `json:"bytes"`
	// Saturation is the max of the tenant's quota-occupancy ratios in
	// [0, 1]; 0 for a tenant with no finite quotas.
	Saturation float64 `json:"saturation"`
	Limits     Limits  `json:"limits"`
}

// Usage snapshots the tenant.
func (t *Tenant) Usage() Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := Usage{
		Name: t.name, Weight: t.lim.weight(),
		Jobs: t.jobs, Streams: t.streams, Bytes: t.bytes, Limits: t.lim,
	}
	sat := func(used, limit float64) {
		if limit > 0 {
			if r := used / limit; r > u.Saturation {
				u.Saturation = r
			}
		}
	}
	sat(float64(t.jobs), float64(t.lim.MaxJobs))
	sat(float64(t.streams), float64(t.lim.MaxStreams))
	sat(float64(t.bytes), float64(t.lim.MaxBytes))
	if u.Saturation > 1 {
		u.Saturation = 1
	}
	return u
}

// Registry is the tenant table. The zero value is not usable; create with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	now      func() time.Time
	defaults Limits
	max      int
	tenants  map[string]*Tenant
	onChange func(name string, lim Limits)
}

// MaxTenants is the default cap on distinct tracked identities.
const MaxTenants = 1024

// NewRegistry returns a registry whose unknown tenants start with defaults.
func NewRegistry(defaults Limits) *Registry {
	return &Registry{
		now:      time.Now,
		defaults: defaults,
		max:      MaxTenants,
		tenants:  make(map[string]*Tenant),
	}
}

// SetClock injects a time source (tests).
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
	for _, t := range r.tenants {
		t.now = now
	}
}

// OnChange registers a hook fired (outside the registry lock) whenever a
// tenant's limits are set explicitly — the journal's durability seam.
func (r *Registry) OnChange(fn func(name string, lim Limits)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onChange = fn
}

// Canonical normalizes a caller-supplied identity: trimmed, truncated to
// MaxName, empty mapped to DefaultName.
func Canonical(name string) string {
	name = strings.TrimSpace(name)
	if name == "" {
		return DefaultName
	}
	if len(name) > MaxName {
		name = name[:MaxName]
	}
	return name
}

// Get returns the tenant for name, creating it with the default limits on
// first use. Past the registry cap, unseen names share OverflowName.
func (r *Registry) Get(name string) *Tenant {
	name = Canonical(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(name)
}

func (r *Registry) getLocked(name string) *Tenant {
	if t, ok := r.tenants[name]; ok {
		return t
	}
	if len(r.tenants) >= r.max && name != OverflowName {
		return r.getLocked(OverflowName)
	}
	t := &Tenant{name: name, now: r.now, lim: r.defaults}
	r.tenants[name] = t
	return t
}

// Lookup returns the tenant only if it already exists.
func (r *Registry) Lookup(name string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[Canonical(name)]
	return t, ok
}

// Set creates or updates a tenant with explicit limits and fires the
// OnChange hook (use Apply for replaying journaled limits at recovery).
func (r *Registry) Set(name string, lim Limits) *Tenant {
	t, hook := r.apply(name, lim)
	if hook != nil {
		hook(t.name, lim)
	}
	return t
}

// Apply is Set without the OnChange hook — recovery replays journaled
// limits through it so they are not re-journaled.
func (r *Registry) Apply(name string, lim Limits) *Tenant {
	t, _ := r.apply(name, lim)
	return t
}

func (r *Registry) apply(name string, lim Limits) (*Tenant, func(string, Limits)) {
	name = Canonical(name)
	r.mu.Lock()
	t := r.getLocked(name)
	hook := r.onChange
	r.mu.Unlock()
	t.setLimits(lim)
	return t, hook
}

// Defaults returns the limits unknown tenants start with.
func (r *Registry) Defaults() Limits {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.defaults
}

// Snapshot returns every tracked tenant's usage, sorted by name.
func (r *Registry) Snapshot() []Usage {
	r.mu.Lock()
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	out := make([]Usage, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Usage())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseDeadline parses a DeadlineHeader value: a Go duration is taken
// relative to now, otherwise the value must be an absolute RFC 3339
// timestamp. Empty input is no deadline (zero time, nil error).
func ParseDeadline(v string, now time.Time) (time.Time, error) {
	v = strings.TrimSpace(v)
	if v == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		if d <= 0 {
			return time.Time{}, fmt.Errorf("tenant: deadline duration %q must be positive", v)
		}
		return now.Add(d), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("tenant: deadline %q is neither a duration nor RFC 3339", v)
	}
	return t, nil
}

// ParseSpec parses the -tenants flag grammar: semicolon-separated tenant
// clauses, each "name:key=value,key=value". Keys are weight, rate, burst,
// jobs, streams, bytes. Example:
//
//	alice:weight=4,rate=50,jobs=16;bob:weight=1,rate=5,burst=10,bytes=67108864
func ParseSpec(spec string) (map[string]Limits, error) {
	out := map[string]Limits{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		name = Canonical(name)
		if !ok || strings.TrimSpace(rest) == "" {
			return nil, fmt.Errorf("tenant: spec clause %q needs name:key=value[,...]", clause)
		}
		var lim Limits
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("tenant: spec entry %q is not key=value", kv)
			}
			var err error
			switch k {
			case "weight":
				lim.Weight, err = strconv.Atoi(v)
			case "rate":
				lim.Rate, err = strconv.ParseFloat(v, 64)
			case "burst":
				lim.Burst, err = strconv.ParseFloat(v, 64)
			case "jobs":
				lim.MaxJobs, err = strconv.Atoi(v)
			case "streams":
				lim.MaxStreams, err = strconv.Atoi(v)
			case "bytes":
				lim.MaxBytes, err = strconv.ParseInt(v, 10, 64)
			default:
				return nil, fmt.Errorf("tenant: spec key %q unknown (weight, rate, burst, jobs, streams, bytes)", k)
			}
			if err != nil {
				return nil, fmt.Errorf("tenant: spec value %q for %s: %v", v, k, err)
			}
		}
		out[name] = lim
	}
	return out, nil
}
