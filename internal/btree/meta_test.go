package btree

import (
	"runtime"
	"testing"

	"dbproc/internal/storage"
)

// TestDirectoryMutationCopiesAtMost512B: the first change to a node's meta
// after a publish copies one storage.Table chunk and nothing else — the
// directory's copy-on-write unit — and that unit is at most 512 bytes (it
// was 64 entries × 24 bytes, ~1.5 KB, ~41 of them per base-relation
// update). A second change to the same chunk copies nothing.
func TestDirectoryMutationCopiesAtMost512B(t *testing.T) {
	var meta storage.Table[nodeMeta]
	const nodes = 2_600 // R1's tree at N = 100 000
	for i := 0; i < nodes; i++ {
		*meta.Mut(i) = nodeMeta{leaf: true, count: i}
	}
	// The copy is deterministic and anything else the process allocates
	// meanwhile only adds, so the smallest reading over the runs is the
	// mutation's own.
	const runs = 100
	first, second := ^uint64(0), ^uint64(0)
	var before, mid, after runtime.MemStats
	for i := 0; i < runs; i++ {
		frozen := meta.Snapshot()
		id := (i * 37) % nodes
		runtime.ReadMemStats(&before)
		meta.Mut(id).count++
		runtime.ReadMemStats(&mid)
		meta.Mut(id^1).count++ // same chunk
		runtime.ReadMemStats(&after)
		first = min(first, mid.TotalAlloc-before.TotalAlloc)
		second = min(second, after.TotalAlloc-mid.TotalAlloc)
		if frozen.Get(id).count == meta.Get(id).count {
			t.Fatal("a mutation after Snapshot wrote into the published chunk")
		}
	}
	if first == 0 || first > 512 {
		t.Errorf("the first meta mutation after a publish copies %d bytes, want 1..512", first)
	}
	if second != 0 {
		t.Errorf("a later mutation of the same, now unshared, chunk allocated %d bytes", second)
	}
}
