package telemetry

// NumVSMStates is the number of variable-state-machine states (invalid,
// host, target, consistent — shadow.State). AnalyzerStats counts
// transitions as a NumVSMStates x NumVSMStates matrix indexed by the
// packed state values, so it needs no dependency on the shadow package.
const NumVSMStates = 4

// AnalyzerStats collects detector-level counters: VSM state transitions
// per (from, to) pair, interval-index lookups, and region/CV memo hits. No
// detector records a CAS retry, because none updates shadow words with
// compare-and-swap; that counter is kept only for the summary key and the
// metric that read it.
//
// A collector belongs to one analyzer, which receives one event at a time
// (the ompt.Tool contract), so the counters are plain integers; read them
// after the analyzer's last event. Every method is safe to call on a nil
// receiver and does nothing there — the detector hot paths carry a
// possibly-nil *AnalyzerStats and call it unconditionally, so disabled
// stats cost one predictable branch per record point (verified by the
// bench_test.go disabled/enabled deltas).
type AnalyzerStats struct {
	transitions [NumVSMStates * NumVSMStates]uint64
	casRetries  uint64
	treeLookups uint64
	memoHits    uint64
}

// NewAnalyzerStats returns a zeroed collector.
func NewAnalyzerStats() *AnalyzerStats { return &AnalyzerStats{} }

// Enabled reports whether the collector is live (non-nil).
func (s *AnalyzerStats) Enabled() bool { return s != nil }

// RecordTransition counts one VSM transition from state from to state to.
// Out-of-range states are ignored.
func (s *AnalyzerStats) RecordTransition(from, to uint8) {
	if s == nil || from >= NumVSMStates || to >= NumVSMStates {
		return
	}
	s.transitions[int(from)*NumVSMStates+int(to)]++
}

// RecordCASRetry counts one failed compare-and-swap on a shadow word. The
// detector no longer updates shadow words with compare-and-swap, so nothing
// records one; the counter stays for the summary key and metric that read it.
func (s *AnalyzerStats) RecordCASRetry() {
	if s == nil {
		return
	}
	s.casRetries++
}

// RecordTreeLookup counts one interval-index stab.
func (s *AnalyzerStats) RecordTreeLookup() {
	if s == nil {
		return
	}
	s.treeLookups++
}

// RecordMemoHit counts one region lookup satisfied by a last-hit memo
// instead of an index search.
func (s *AnalyzerStats) RecordMemoHit() {
	if s == nil {
		return
	}
	s.memoHits++
}

// TransitionCount returns the recorded count for (from, to); zero on a nil
// receiver or out-of-range states.
func (s *AnalyzerStats) TransitionCount(from, to uint8) uint64 {
	if s == nil || from >= NumVSMStates || to >= NumVSMStates {
		return 0
	}
	return s.transitions[int(from)*NumVSMStates+int(to)]
}

// CASRetries returns the recorded CAS-retry count (zero on nil).
func (s *AnalyzerStats) CASRetries() uint64 {
	if s == nil {
		return 0
	}
	return s.casRetries
}

// TreeLookups returns the recorded interval-index lookup count (zero on nil).
func (s *AnalyzerStats) TreeLookups() uint64 {
	if s == nil {
		return 0
	}
	return s.treeLookups
}

// MemoHits returns the recorded memo-hit count (zero on nil).
func (s *AnalyzerStats) MemoHits() uint64 {
	if s == nil {
		return 0
	}
	return s.memoHits
}
