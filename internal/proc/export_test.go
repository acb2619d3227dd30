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
