package omp

import (
	"sync"

	"repro/internal/ompt"
)

// task is one unit of execution: the initial host task, a target task, or a
// ParallelFor worker. Tasks form a tree; happens-before edges are published
// to the tools as sync events and consumed by the race detector.
type task struct {
	rt     *Runtime
	id     ompt.TaskID
	thread ompt.ThreadID
	parent *task
	done   chan struct{}

	mu       sync.Mutex
	children []*task
}

func (rt *Runtime) newTask(parent *task) *task {
	t := &task{
		rt:     rt,
		id:     rt.newTaskID(),
		thread: rt.newThreadID(),
		parent: parent,
		done:   make(chan struct{}),
	}
	if parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, t)
		parent.mu.Unlock()
	}
	return t
}

// takeChildren removes and returns the task's current children.
func (t *task) takeChildren() []*task {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs := t.children
	t.children = nil
	return cs
}

// TaskWait suspends the current task until all its outstanding child tasks
// complete (the taskwait construct, and the implicit barrier semantics the
// runtime applies at the end of Run). Each joined child contributes a
// happens-before edge child -> current task.
func (c *Context) TaskWait() {
	for _, child := range c.task.takeChildren() {
		<-child.done
		c.rt.tools.Sync(ompt.SyncEvent{
			Kind:   ompt.SyncDependence,
			Task:   c.task.id,
			Child:  child.id,
			Thread: c.task.thread,
			Loc:    c.loc,
		})
	}
	c.rt.tools.Sync(ompt.SyncEvent{
		Kind: ompt.SyncTaskWait, Task: c.task.id, Thread: c.task.thread, Loc: c.loc,
	})
}

// depEntry tracks the last tasks to produce/consume a buffer, implementing
// depend-clause ordering between sibling target tasks.
type depEntry struct {
	lastOut *task
	lastIns []*task
}

// resolveDeps computes the predecessor tasks the new task must wait for
// given its in/out dependence lists, and updates the dependence table.
func (rt *Runtime) resolveDeps(t *task, in, out []*Buffer) []*task {
	rt.depMu.Lock()
	defer rt.depMu.Unlock()
	var preds []*task
	add := func(p *task) {
		if p == nil || p == t {
			return
		}
		for _, q := range preds {
			if q == p {
				return
			}
		}
		preds = append(preds, p)
	}
	for _, b := range in {
		e := rt.deps[b.addr]
		if e == nil {
			e = &depEntry{}
			rt.deps[b.addr] = e
		}
		add(e.lastOut) // in depends on previous out
		e.lastIns = append(e.lastIns, t)
	}
	for _, b := range out {
		e := rt.deps[b.addr]
		if e == nil {
			e = &depEntry{}
			rt.deps[b.addr] = e
		}
		add(e.lastOut) // out depends on previous out...
		for _, r := range e.lastIns {
			add(r) // ...and on previous ins
		}
		e.lastOut = t
		e.lastIns = nil
	}
	return preds
}

// awaitDeps blocks task t until all predecessors finish, emitting the
// corresponding happens-before edges.
func (rt *Runtime) awaitDeps(t *task, preds []*task, loc ompt.SourceLoc) {
	for _, p := range preds {
		<-p.done
		rt.tools.Sync(ompt.SyncEvent{
			Kind:   ompt.SyncDependence,
			Task:   t.id,
			Child:  p.id,
			Thread: t.thread,
			Loc:    loc,
		})
	}
}

// ParallelFor runs body for every i in [0, n), distributed over the
// runtime's configured number of device threads. It models `teams distribute
// parallel for`: each worker executes as its own implicit task with a
// private Context, and an implicit barrier joins them before ParallelFor
// returns.
func (c *Context) ParallelFor(n int, body func(c *Context, i int)) {
	c.forkJoin(c.rt.cfg.NumThreads, n, func(wc *Context, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(wc, i)
		}
	})
}

// forkJoin splits [0, n) into at most parts contiguous chunks and runs each
// on its own goroutine as a child task of c's task: the task's create and
// begin events, run over its chunk with the task's private Context, then
// its end event. An implicit barrier joins the tasks into c's task before
// forkJoin returns.
func (c *Context) forkJoin(parts, n int, run func(tc *Context, lo, hi int)) {
	if n <= 0 {
		return
	}
	parts = min(max(parts, 1), n)
	chunk := (n + parts - 1) / parts
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := c.rt.newTask(c.task)
			c.rt.tools.Sync(ompt.SyncEvent{
				Kind: ompt.SyncTaskCreate, Task: c.task.id, Child: t.id, Thread: c.task.thread, Loc: c.loc,
			})
			tc := &Context{rt: c.rt, task: t, device: c.device, space: c.space, dev: c.dev, loc: c.loc}
			c.rt.tools.Sync(ompt.SyncEvent{Kind: ompt.SyncTaskBegin, Task: t.id, Thread: t.thread, Loc: c.loc})
			run(tc, lo, hi)
			c.rt.tools.Sync(ompt.SyncEvent{Kind: ompt.SyncTaskEnd, Task: t.id, Child: t.id, Thread: t.thread, Loc: c.loc})
			close(t.done)
		}()
	}
	wg.Wait()
	c.TaskWait()
}
