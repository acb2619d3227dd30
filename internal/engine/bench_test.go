package engine

import (
	"hash/maphash"
	"sync"
	"testing"
)

// seedLockTable replicates the pre-profiler lock table's hot path — map
// lookup under the shard mutex, then a plain RWMutex acquire, no clock
// reads — as the baseline the profiling-off path is held to (within ~5%;
// see scripts/verify.sh tier 4).
type seedLockTable struct {
	seed   maphash.Seed
	shards [lockShards]seedLockShard
}

type seedLockShard struct {
	mu    sync.Mutex
	locks map[string]*sync.RWMutex
}

func newSeedLockTable() *seedLockTable {
	t := &seedLockTable{seed: maphash.MakeSeed()}
	for i := range t.shards {
		t.shards[i].locks = make(map[string]*sync.RWMutex)
	}
	return t
}

func (t *seedLockTable) lock(name string) *sync.RWMutex {
	s := &t.shards[maphash.String(t.seed, name)%lockShards]
	s.mu.Lock()
	l := s.locks[name]
	if l == nil {
		l = &sync.RWMutex{}
		s.locks[name] = l
	}
	s.mu.Unlock()
	return l
}

func (t *seedLockTable) acquire(f Footprint) ([]*sync.RWMutex, []bool) {
	f = f.normalized()
	locks := make([]*sync.RWMutex, len(f.names))
	for i, name := range f.names {
		l := t.lock(name)
		if f.excl[i] {
			l.Lock()
		} else {
			l.RLock()
		}
		locks[i] = l
	}
	return locks, f.excl
}

// benchFootprint is a representative query footprint: two shared
// relation locks plus one exclusive cache-entry lock.
func benchFootprint() Footprint {
	var f Footprint
	f.Shared(RelLock("r1"), RelLock("r2"))
	f.Exclusive(EntryLock(17))
	return f
}

// BenchmarkAcquireSeedBaseline measures the pre-profiler acquire/release
// cycle: the denominator of the lock-table overhead guard.
func BenchmarkAcquireSeedBaseline(b *testing.B) {
	t := newSeedLockTable()
	for i := 0; i < b.N; i++ {
		locks, excl := t.acquire(benchFootprint())
		for j := len(locks) - 1; j >= 0; j-- {
			if excl[j] {
				locks[j].Unlock()
			} else {
				locks[j].RUnlock()
			}
		}
	}
}

// BenchmarkAcquireProfilingOff measures the same cycle on the production
// lock table with the contention profiler disabled — the zero-telemetry
// path. The guard in scripts/verify.sh tier 4 asserts it stays within
// ~5% of BenchmarkAcquireSeedBaseline.
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
// blame tag on the profiling-off table: the path every non-diagnosis
// run takes after the blame plumbing landed. The guard in
// scripts/verify.sh tier 4 asserts it stays within ~5% of
// BenchmarkAcquireSeedBaseline — blame attribution must cost nothing
// when off.
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
