package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
)

// stubCoordinator takes the first job it is offered, as a lease grant
// would, and holds every later one until release closes; then it declines
// them, so the pool runs them.
type stubCoordinator struct {
	mu      sync.Mutex
	leased  string
	release chan struct{}
}

func (c *stubCoordinator) Handoff(ctx context.Context, spec dist.JobSpec) bool {
	c.mu.Lock()
	if c.leased == "" {
		c.leased = spec.ID
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	<-c.release
	return false
}

func (c *stubCoordinator) FleetSnapshot() dist.FleetSnapshot { return dist.FleetSnapshot{} }

// TestRequeueIntoFullQueueIsDequeued requeues an expired lease's job into a
// queue that already holds QueueSize jobs. Requeue bypasses the admission
// bound, and every queued job, this one too, must still wake a pool worker:
// all of them finish without another submission to nudge the pool.
func TestRequeueIntoFullQueueIsDequeued(t *testing.T) {
	tr := recordTrace(t, 22)
	s := New(Config{Workers: 1, QueueSize: 2})
	coord := &stubCoordinator{release: make(chan struct{})}
	s.AttachCoordinator(coord)
	s.Start()
	defer shutdownOrFail(t, s)

	var ids []string
	submit := func() {
		t.Helper()
		v, err := s.Submit("arbalest", tr)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if depth, _ := s.QueueFullness(); depth == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	submit() // leased by the stub
	submit() // held by the one pool worker
	waitDepth(0)
	submit()
	submit()
	if _, err := s.Submit("arbalest", tr); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third queued submission: err %v, want ErrQueueFull", err)
	}
	coord.mu.Lock()
	leased := coord.leased
	coord.mu.Unlock()
	if leased != ids[0] {
		t.Fatalf("stub leased %q, want %s", leased, ids[0])
	}

	s.Requeue(leased) // the lease expired
	waitDepth(3)
	close(coord.release)
	for _, id := range ids {
		if got := waitSettled(t, s, id); got.Status != StatusDone {
			t.Fatalf("job %s: status %s (%s)", id, got.Status, got.Error)
		}
	}
}
