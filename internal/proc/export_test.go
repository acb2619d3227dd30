package proc

// SetAfterUnlock installs fn as the afterUnlock hook of a Cache and
// Invalidate or Adaptive strategy.
func SetAfterUnlock(s Strategy, fn func()) {
	if s, ok := s.(*CacheInvalidate); ok {
		s.afterUnlock = fn
	}
}

// DefinitionOf returns the definition a Cache and Invalidate strategy
// holds for a procedure.
func DefinitionOf(s *CacheInvalidate, id int) *Definition { return s.mgr.MustGet(id) }

// BypassedCount reports how many procedures an Adaptive strategy has in
// bypass mode.
func (s *CacheInvalidate) BypassedCount() int {
	n := 0
	s.states.Range(func(_, v any) bool {
		st := v.(*entryState)
		st.mu.Lock()
		if st.bypass {
			n++
		}
		st.mu.Unlock()
		return true
	})
	return n
}
