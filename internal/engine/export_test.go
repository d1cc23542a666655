package engine

// Test-only accessors for session internals.

// NumClockStates reports how many clock configurations the session has
// built and cached so far.
func (s *Session) NumClockStates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clocks)
}

// FreeScratch reports how many released per-run buffer sets sit in the
// session pool.
func (s *Session) FreeScratch() int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return len(s.pool.free)
}

// NumLevels reports the number of topological levels of the data DAG.
func (s *Session) NumLevels() int {
	s.levelOnce.Do(s.levelize)
	return len(s.levelOff) - 1
}
