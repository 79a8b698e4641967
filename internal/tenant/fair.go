package tenant

// FairQueue is a weighted round-robin queue of items grouped by tenant.
// Each recharge cycle grants every active tenant credits equal to its
// weight; Pop walks the ring of active tenants one grant at a time, so a
// weight-2 tenant receives two slots per cycle interleaved with everyone
// else's — no tenant can starve another no matter how deep its backlog.
//
// FairQueue is NOT safe for concurrent use: its one caller, the service's
// job queue, already serializes access under its own mutex, and keeping the
// queue lock-free lets it compose operations (pop + shed + journal)
// atomically.
type FairQueue[T any] struct {
	queues  map[string][]T
	weights map[string]int
	credit  map[string]int
	ring    []string // active (non-empty) tenants, arrival order
	cursor  int
	size    int
}

// NewFairQueue returns an empty queue.
func NewFairQueue[T any]() *FairQueue[T] {
	return &FairQueue[T]{
		queues:  make(map[string][]T),
		weights: make(map[string]int),
		credit:  make(map[string]int),
	}
}

// Push appends v to tenant's backlog. weight (clamped to >= 1) updates the
// tenant's share for subsequent recharge cycles, so live weight tuning
// applies to work already queued.
func (q *FairQueue[T]) Push(tenant string, weight int, v T) {
	q.pushDir(tenant, weight, v, false)
}

// PushFront prepends v to tenant's backlog — a job whose lease expired goes
// back at the head of its tenant's line, so it runs next without jumping
// other tenants.
func (q *FairQueue[T]) PushFront(tenant string, weight int, v T) {
	q.pushDir(tenant, weight, v, true)
}

func (q *FairQueue[T]) pushDir(tenant string, weight int, v T, front bool) {
	if weight < 1 {
		weight = 1
	}
	q.weights[tenant] = weight
	buf, active := q.queues[tenant]
	if front {
		q.queues[tenant] = append([]T{v}, buf...)
	} else {
		q.queues[tenant] = append(buf, v)
	}
	if !active || len(buf) == 0 {
		q.activate(tenant)
	}
	q.size++
}

// activate adds tenant to the ring if absent, with a fresh credit grant.
func (q *FairQueue[T]) activate(tenant string) {
	for _, t := range q.ring {
		if t == tenant {
			return
		}
	}
	q.ring = append(q.ring, tenant)
	q.credit[tenant] = q.weights[tenant]
}

// Pop removes and returns the next item under weighted round-robin, along
// with the tenant it belonged to. ok is false when the queue is empty.
func (q *FairQueue[T]) Pop() (tenant string, v T, ok bool) {
	var zero T
	if q.size == 0 {
		return "", zero, false
	}
	for pass := 0; pass < 2; pass++ {
		n := len(q.ring)
		for i := 0; i < n; i++ {
			idx := (q.cursor + i) % n
			t := q.ring[idx]
			if len(q.queues[t]) == 0 || q.credit[t] <= 0 {
				continue
			}
			q.credit[t]--
			v := q.queues[t][0]
			q.queues[t] = q.queues[t][1:]
			q.size--
			q.cursor = (idx + 1) % n
			if len(q.queues[t]) == 0 {
				q.deactivate(t)
			}
			return t, v, true
		}
		// Every backlogged tenant is out of credit: recharge by weight.
		for _, t := range q.ring {
			q.credit[t] = q.weights[t]
		}
	}
	return "", zero, false
}

// deactivate removes tenant from the ring (its backlog emptied), keeping
// cursor pointing at the same next tenant.
func (q *FairQueue[T]) deactivate(tenant string) {
	for i, t := range q.ring {
		if t != tenant {
			continue
		}
		q.ring = append(q.ring[:i], q.ring[i+1:]...)
		delete(q.credit, tenant)
		delete(q.queues, tenant)
		if len(q.ring) == 0 {
			q.cursor = 0
		} else {
			if i < q.cursor {
				q.cursor--
			}
			q.cursor %= len(q.ring)
		}
		return
	}
}

// PopNewest removes and returns tenant's most recently queued item — the
// shed order: newest work of the heaviest tenant first, so long-queued
// (oldest) work keeps its sunk investment.
func (q *FairQueue[T]) PopNewest(tenant string) (v T, ok bool) {
	var zero T
	buf := q.queues[tenant]
	if len(buf) == 0 {
		return zero, false
	}
	v = buf[len(buf)-1]
	q.queues[tenant] = buf[:len(buf)-1]
	q.size--
	if len(q.queues[tenant]) == 0 {
		q.deactivate(tenant)
	}
	return v, true
}

// Heaviest returns the tenant with the deepest backlog (ties broken by ring
// order) and its depth; ok is false when the queue is empty.
func (q *FairQueue[T]) Heaviest() (tenant string, depth int, ok bool) {
	for _, t := range q.ring {
		if n := len(q.queues[t]); n > depth {
			tenant, depth, ok = t, n, true
		}
	}
	return tenant, depth, ok
}

// Len returns the total queued items.
func (q *FairQueue[T]) Len() int { return q.size }

// TenantLen returns one tenant's backlog depth.
func (q *FairQueue[T]) TenantLen(tenant string) int { return len(q.queues[tenant]) }
