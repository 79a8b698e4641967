//go:build !race

package stream_test

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation allocates.
const raceEnabled = false
