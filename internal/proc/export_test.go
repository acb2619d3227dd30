package proc

// SetAfterUnlock installs fn as the afterUnlock hook of a Cache and
// Invalidate or Adaptive strategy.
func SetAfterUnlock(s Strategy, fn func()) {
	switch s := s.(type) {
	case *CacheInvalidate:
		s.afterUnlock = fn
	case *Adaptive:
		s.afterUnlock = fn
	}
}

// DefinitionOf returns the definition a Cache and Invalidate strategy
// holds for a procedure.
func DefinitionOf(s *CacheInvalidate, id int) *Definition { return s.mgr.MustGet(id) }
