package dist

import "time"

// Hooks for the tests of package dist_test.

// ExpireLease lapses jobID's lease now, as if its heartbeats had stopped a
// TTL ago, and runs the janitor over it: the lease closes with an error and
// the job is rescheduled. It reports whether the job held a lease.
func (c *Coordinator) ExpireLease(jobID string) bool {
	c.mu.Lock()
	l, ok := c.leases[jobID]
	if ok {
		l.deadline = time.Time{}
	}
	c.mu.Unlock()
	if ok {
		c.janitorOnce(time.Now())
	}
	return ok
}
