//go:build race

package stream

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation allocates.
const raceEnabled = true
