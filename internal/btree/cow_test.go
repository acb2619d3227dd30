package btree_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"dbproc/internal/btree"
	"dbproc/internal/dbtest/cowtest"
	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// cowTree adapts a tree of 16-byte records (key, random payload) to the
// copy-on-write harness; with 128-byte pages a leaf holds 8 records and
// an internal node 5 children, so random churn over 600 keys splits
// leaves and internal nodes, empties and frees them, and grows and
// collapses the root.
type cowTree struct {
	t    *btree.Tree
	keys map[uint64]bool
}

func (c *cowTree) Mutate(pg *storage.Pager, rng *rand.Rand) {
	// Long runs of inserts, then of deletes, so the tree both deepens and
	// drains instead of hovering around one size.
	growing := rng.Intn(100) < 55
	for n := 1 + rng.Intn(12); n > 0; n-- {
		key := uint64(rng.Intn(600))
		if growing && !c.keys[key] {
			c.t.Insert(pg, cowtest.Rec(key, rng))
			c.keys[key] = true
			continue
		}
		if c.t.Delete(pg, key) != c.keys[key] {
			panic("tree disagrees with the model")
		}
		delete(c.keys, key)
	}
}

func (c *cowTree) Dump(pg *storage.Pager) [][]byte {
	var out [][]byte
	c.t.ScanAll(pg, func(rec []byte) bool {
		out = append(out, append([]byte(nil), rec...))
		return true
	})
	return out
}

func TestTreeSnapshotsSurviveUpdates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		disk := storage.NewDisk(128)
		c := &cowTree{t: btree.New(disk, 16, 8, 25, btree.Key{Hi: 4}), keys: make(map[uint64]bool)}
		cowtest.Run(t, disk, c, 400, 3, seed)
	}
}

// A record slice handed to a scan callback aliases the leaf's image; an
// insert into the same leaf later in the same operation must not move
// bytes under it.
func TestTreeWriteAfterRead(t *testing.T) {
	disk := storage.NewDisk(128)
	pg := storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
	tr := btree.New(disk, 16, 8, 25, btree.Key{Hi: 4})
	rng := rand.New(rand.NewSource(1))
	for k := uint64(10); k < 15; k++ {
		tr.Insert(pg, cowtest.Rec(k, rng))
	}
	pg.BeginOp()
	var seen []byte
	tr.ScanAll(pg, func(rec []byte) bool { seen = rec; return false })
	want := append([]byte(nil), seen...)
	tr.Insert(pg, cowtest.Rec(1, rng)) // shifts every record of the leaf up a slot
	tr.Delete(pg, 10)
	if !bytes.Equal(seen, want) {
		t.Fatalf("a slice from ScanAll changed under a later write in the same operation: %x, was %x", seen, want)
	}
}

// publishAllocs loads n 100-byte records into a tree on 4000-byte pages
// (R1's geometry) and returns the allocations one update's Publish and
// version GC make: the update moves one record within its leaf, as a
// base-relation update does.
func publishAllocs(n int) float64 {
	disk := storage.NewDisk(4000)
	pg := storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
	pg.SetCharging(false)
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, 100)
		binary.LittleEndian.PutUint64(recs[i], uint64(2*i))
	}
	tr := btree.BulkLoad(pg, 100, 40, 20, btree.Key{Hi: 4}, recs)
	pg.BeginOp()

	const runs = 50
	var total uint64
	rec := make([]byte, 100)
	for i := 0; i < runs+1; i++ {
		key := uint64(2 * (n / 2))
		pg.OpenScope(true)
		pg.BeginOp()
		tr.Delete(pg, key+uint64(i%2))
		binary.LittleEndian.PutUint64(rec, key+uint64((i+1)%2))
		tr.Insert(pg, rec)
		pg.Flush()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pg.CloseScope(uint64(i + 1))
		disk.GCVersions()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first publish grows the queues
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / runs
}

// TestPublishAllocsIndependentOfSize: publishing an update and collecting
// its garbage costs what the update touched, whatever the relation holds.
func TestPublishAllocsIndependentOfSize(t *testing.T) {
	small, large := publishAllocs(10_000), publishAllocs(100_000)
	if small != large {
		t.Errorf("Publish+GC of a one-record update makes %v allocations at N=10000 and %v at N=100000", small, large)
	}
	if small > 8 {
		t.Errorf("Publish+GC of a one-record update makes %v allocations", small)
	}
}
