package omp

// TeamsDistributeParallelFor models the combined construct
// `#pragma omp teams distribute parallel for` used by the paper's example
// kernels (Fig. 1): the iteration space [0, n) is distributed across a
// league of teams, and each team executes its contiguous chunk with a nested
// parallel for. Each team is its own implicit task (so the race detector
// sees the two-level structure), and an implicit barrier joins the league
// before the call returns.
func (c *Context) TeamsDistributeParallelFor(teams, n int, body func(c *Context, i int)) {
	c.forkJoin(teams, n, func(tc *Context, lo, hi int) {
		tc.ParallelFor(hi-lo, func(wc *Context, i int) {
			body(wc, lo+i)
		})
	})
}
