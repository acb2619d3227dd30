package engine

import "testing"

// benchFootprint is the update footprint: two exclusive relation locks
// plus one shared.
func benchFootprint() Footprint {
	var f Footprint
	f.Exclusive(RelLock("r1"), RelLock("r2"))
	f.Shared(RelLock("r3"))
	return f
}

// BenchmarkAcquireProfilingOff measures an acquire/release cycle on the
// lock table with the contention profiler disabled — the zero-telemetry
// path: a map lookup under the shard mutex and a plain RWMutex acquire per
// lock, no clock reads. TestUpdateFootprintBuiltOnce holds an uncontended
// acquire to two allocations.
func BenchmarkAcquireProfilingOff(b *testing.B) {
	t := NewLockTable()
	for i := 0; i < b.N; i++ {
		t.Acquire(benchFootprint()).Release()
	}
	if t.Profiling() {
		b.Fatal("profiling unexpectedly on")
	}
}

// BenchmarkAcquireBlameOff measures AcquireAs with a session id but no
// blame tag on the profiling-off table, the path every non-diagnosis run
// takes: blame attribution costs nothing when off.
func BenchmarkAcquireBlameOff(b *testing.B) {
	t := NewLockTable()
	for i := 0; i < b.N; i++ {
		t.AcquireAs(benchFootprint(), 3, "").Release()
	}
	if t.Profiling() {
		b.Fatal("profiling unexpectedly on")
	}
}

// BenchmarkAcquireProfilingOn prices the profiler itself (uncontended
// case: one TryLock and two clock reads per lock). Informational — not
// guarded, since enabling telemetry is an explicit opt-in.
func BenchmarkAcquireProfilingOn(b *testing.B) {
	t := NewLockTable()
	t.EnableProfiling()
	for i := 0; i < b.N; i++ {
		t.Acquire(benchFootprint()).Release()
	}
	if len(t.Contention()) == 0 {
		b.Fatal("no profile recorded")
	}
}
