// Package faultinject provides named fault points for chaos testing the
// arbalestd durability layer. Production code calls Fire at well-known
// points; by default every point is disabled and Fire is a cheap no-op
// (one atomic load, no locks). Tests Enable faults — an error return, an
// injected delay, or a panic — at chosen points, optionally with a
// probability and a fire budget, then Reset when done.
//
// The registered point names used by this repository:
//
//	journal.append      error on the write-ahead append (a job's accept or
//	                    a streaming session's open; the session is refused,
//	                    quota released)
//	journal.mark        error on a job's or a session's lifecycle transition
//	                    append
//	journal.fsync       delay before a journal fsync (slow-disk simulation)
//	journal.checkpoint  error or delay on an analyzer-state checkpoint write
//	                    (full-disk or slow-disk simulation; a delay here also
//	                    wedges the replay for stall-watchdog scenarios)
//	worker.slow         delay before a pool worker of the service starts
//	                    its replay
//	worker.replay       panic or delay at the start of a whole-trace replay
//	                    (tools.Run.Replay), on the service's pool and on a
//	                    fleet worker alike (analyzer crash, slow worker)
//	worker.crash        fired after a checkpoint is durably written; an
//	                    armed error simulates a hard crash (the worker
//	                    goroutine exits without unwinding, leaving the job
//	                    "running" in the journal exactly as SIGKILL would)
//	journal.fleet       error on a fleet-log append (fencing-token or
//	                    worker-registration write-ahead record)
//	dist.lease          error inside the coordinator's register/lease
//	                    handlers (mapped to 503; workers retry with backoff)
//	dist.heartbeat      error in the worker agent before a heartbeat send —
//	                    simulates a network partition severing heartbeats
//	                    while the worker keeps computing
//	dist.worker.slow    delay inside a remote worker's checkpoint callback
//	                    (slow worker; lets a lease expire mid-job)
//	dist.worker.crash   fired in a remote worker after a checkpoint posts;
//	                    an armed error makes the whole worker agent exit as
//	                    if the process died, leaving the lease to expire
//	journal.tenant      error on a tenant-limits append (live tuning is
//	                    refused rather than accepted undurably)
//	stream.read         fired per ingest chunk read; an armed error aborts
//	                    the connection mid-body exactly like a client
//	                    disconnect (the session stays live for resume)
//	stream.replay       fired per stream batch between its spool write and
//	                    its replay, in recovery's re-feed too; an armed
//	                    panic stands in for an analyzer crash (the session
//	                    fails, its batch spooled but never applied)
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Fault describes what happens when an enabled point fires. Zero-value
// fields are inert; set the ones the scenario needs.
type Fault struct {
	// Err, when non-nil, is returned from Fire.
	Err error
	// Delay, when positive, makes Fire sleep before returning.
	Delay time.Duration
	// Panic, when non-nil, makes Fire panic with this value.
	Panic any
	// Prob is the probability in (0,1] that an armed point fires on a
	// given Fire call. Zero means always (1.0).
	Prob float64
	// Count, when positive, limits how many times the fault fires; after
	// that the point behaves as disabled.
	Count int64
}

// point is one armed fault.
type point struct {
	fault Fault
	fired atomic.Int64
}

var (
	// armed is a fast-path flag: zero means no faults are enabled anywhere
	// and Fire returns immediately.
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]*point{}
	rng    = rand.New(rand.NewSource(1))
)

// Enable arms the named point with f. Re-enabling a point replaces its
// fault and resets its fire count.
func Enable(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	points[name] = &point{fault: f}
	armed.Store(int32(len(points)))
}

// Disable disarms the named point.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
	armed.Store(int32(len(points)))
}

// Reset disarms every point and reseeds the probability source, returning
// the package to its no-op default.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	rng = rand.New(rand.NewSource(1))
	armed.Store(0)
}

// Seed reseeds the probability source so probabilistic chaos runs are
// reproducible.
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Fired reports how many times the named point has fired since it was
// enabled.
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired.Load()
	}
	return 0
}

// Fire triggers the named point. Disabled points (the default) return nil
// immediately. An armed point, subject to its probability and count
// budget, sleeps for Delay, panics with Panic, or returns Err — in that
// order of precedence when several are set (a delayed error models a
// slow-then-failing disk).
func Fire(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if ok {
		f := p.fault
		if f.Prob > 0 && rng.Float64() >= f.Prob {
			ok = false
		} else if f.Count > 0 && p.fired.Load() >= f.Count {
			ok = false
		}
	}
	if !ok {
		mu.Unlock()
		return nil
	}
	p.fired.Add(1)
	f := p.fault
	mu.Unlock()

	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	if f.Err != nil {
		return fmt.Errorf("faultinject: %s: %w", name, f.Err)
	}
	return nil
}
