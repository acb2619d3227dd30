package engine

import "testing"

// BenchmarkAcquire measures an uncontended acquire/release cycle of the
// prebuilt update footprint — two exclusive relation locks plus one
// shared, blame-tagged as Exec tags it: per lock a map lookup under the
// shard mutex, a TryLock and the profile's atomics, and two clock reads
// for the set. TestUpdateFootprintBuiltOnce holds it to two allocations.
func BenchmarkAcquire(b *testing.B) {
	t := NewLockTable()
	f := updateFootprint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.AcquireAs(f, 3, "update").Release()
	}
	if len(t.Contention()) == 0 {
		b.Fatal("no profile recorded")
	}
}
