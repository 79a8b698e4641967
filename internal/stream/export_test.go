package stream

// Hooks for the tests of package stream_test, which drive sessions through
// the service that owns them.

// CheckpointsWritten reads the checkpoint counter s's owner shares among
// its sessions.
func (s *Session) CheckpointsWritten() uint64 { return s.o.Metrics.checkpoints.Value() }

// HoldsAnalyzer reports whether s still holds its analysis state.
func (s *Session) HoldsAnalyzer() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run != nil
}

// NotifyChannel returns the channel s's long-pollers park on.
func (s *Session) NotifyChannel() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.notify
}
