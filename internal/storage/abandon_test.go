package storage_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"dbproc/internal/btree"
	"dbproc/internal/dbtest"
	"dbproc/internal/dbtest/cowtest"
	"dbproc/internal/hashidx"
	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// versioned is one versioned access method under the abandon test: raw
// insert and delete by key, and a copy of every record pg reads, in scan
// order. Records are cowtest.Rec's: the key, then a random payload.
type versioned struct {
	name   string
	insert func(pg *storage.Pager, rec []byte)
	del    func(pg *storage.Pager, key uint64)
	dump   func(pg *storage.Pager) [][]byte
}

// structures builds the three versioned access methods, each on a disk of
// its own small enough pages that 200 records split ordered-file pages and
// B-tree nodes and grow hash chains.
func structures() []struct {
	disk *storage.Disk
	s    versioned
} {
	// keep collects records, and stops a scan that a broken structure
	// would send round a cycle.
	keep := func(out *[][]byte) func([]byte) bool {
		return func(rec []byte) bool { *out = append(*out, bytes.Clone(rec)); return len(*out) < 10000 }
	}
	ofDisk, trDisk, htDisk := storage.NewDisk(128), storage.NewDisk(128), storage.NewDisk(64)
	of := storage.NewOrderedFile(ofDisk, 16)
	tr := btree.New(trDisk, 16, 25, btree.Key{Hi: 4})
	ht := hashidx.New(htDisk, 16, 5, 0)
	return []struct {
		disk *storage.Disk
		s    versioned
	}{
		{ofDisk, versioned{"ordered file",
			func(pg *storage.Pager, rec []byte) { of.Insert(pg, binary.LittleEndian.Uint64(rec), rec) },
			func(pg *storage.Pager, key uint64) { of.Delete(pg, key) },
			func(pg *storage.Pager) (out [][]byte) {
				of.Scan(pg, func(_ uint64, rec []byte) bool { return keep(&out)(rec) })
				return out
			}}},
		{trDisk, versioned{"b-tree",
			func(pg *storage.Pager, rec []byte) { tr.Insert(pg, rec) },
			func(pg *storage.Pager, key uint64) { tr.Delete(pg, key) },
			func(pg *storage.Pager) (out [][]byte) { tr.ScanAll(pg, keep(&out)); return out }}},
		{htDisk, versioned{"hash file",
			func(pg *storage.Pager, rec []byte) { ht.Insert(pg, rec) },
			func(pg *storage.Pager, key uint64) { ht.Delete(pg, key) },
			func(pg *storage.Pager) (out [][]byte) { ht.ScanAll(pg, keep(&out)); return out }}},
	}
}

// TestAbandon: an update epoch dropped with Pager.AbortScope leaves no
// trace. Each structure is loaded and updated once; then five epochs each
// delete half of its records and append 200 more (freeing pages, splitting
// pages and nodes, growing chains) and are abandoned. A snapshot opened
// during the epoch reads the published records before and after the
// abandon, so does the live structure after it, no epoch is left in
// flight, and the disk does not grow after the first round: the epoch's
// pages went back to the allocator. Then updates publish again, with
// version GC poisoning what it reclaims, and a snapshot pinned before the
// abandons still reads what it did: the restored directories copy what
// they share with it before writing, and no page an abandoned epoch freed
// was handed out while the published state still used it.
func TestAbandon(t *testing.T) {
	// A structure the test has broken can send a descent round a cycle.
	defer dbtest.Watchdog(t, 30*time.Second)()
	for _, c := range structures() {
		t.Run(c.s.name, func(t *testing.T) {
			disk, s := c.disk, c.s
			cowtest.Poison(disk)
			rng := rand.New(rand.NewSource(1))
			newPager := func() *storage.Pager {
				return storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
			}
			w := newPager()
			// update runs one epoch that deletes keys and inserts keys
			// [lo, lo+n), and publishes it unless abandon is set.
			update := func(del [][]byte, lo, n uint64, abandon bool) {
				w.OpenScope(true)
				w.BeginOp()
				for _, rec := range del {
					s.del(w, binary.LittleEndian.Uint64(rec))
				}
				for k := lo; k < lo+n; k++ {
					s.insert(w, cowtest.Rec(k, rng))
				}
				if abandon {
					w.Flush()
					return
				}
				w.CloseScope(disk.CommitStamp() + 1)
				disk.GCVersions()
			}
			for k := uint64(0); k < 200; k++ { // bulk load
				s.insert(w, cowtest.Rec(k, rng))
			}
			w.BeginOp()
			update(s.dump(w)[:20], 200, 20, false)

			pinned := newPager()
			pinned.OpenScope(false)
			published := s.dump(pinned)
			same := func(pg *storage.Pager, who string) {
				t.Helper()
				pg.BeginOp()
				got := s.dump(pg)
				if len(got) != len(published) {
					t.Fatalf("%s reads %d records, %d are published", who, len(got), len(published))
				}
				for i := range got {
					if !bytes.Equal(got[i], published[i]) {
						t.Fatalf("%s reads record %d as %x, %x is published", who, i, got[i], published[i])
					}
				}
			}
			pages := 0
			for round := 0; round < 5; round++ {
				update(published[:len(published)/2], 1000, 200, true)
				during := newPager()
				during.OpenScope(false)
				same(during, "a snapshot opened during the epoch")
				w.AbortScope()
				same(during, "after the abandon, a snapshot opened during the epoch")
				during.CloseScope(0)
				same(newPager(), "the live structure")
				if disk.UpdateInFlight() {
					t.Fatalf("round %d: an epoch is in flight after AbortScope", round)
				}
				if round == 0 {
					pages = disk.NumPages()
				} else if n := disk.NumPages(); n != pages {
					t.Fatalf("round %d: the disk holds %d pages, %d after the first round", round, n, pages)
				}
			}
			for round := uint64(0); round < 5; round++ {
				w.BeginOp()
				update(s.dump(w)[:30], 2000+100*round, 60, false)
			}
			same(pinned, "the snapshot pinned before the abandons")
			pinned.CloseScope(0)
		})
	}
}
