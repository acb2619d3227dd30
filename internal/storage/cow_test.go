package storage_test

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"dbproc/internal/dbtest/cowtest"
	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// cowFile adapts an OrderedFile of 16-byte records (key, random payload)
// to the copy-on-write harness; 8 records fill a 128-byte page, so random
// churn over 400 keys splits, empties and frees pages all the time.
type cowFile struct {
	f    *storage.OrderedFile
	keys map[uint64]bool
}

func (c *cowFile) Mutate(pg *storage.Pager, rng *rand.Rand) {
	for n := 1 + rng.Intn(6); n > 0; n-- {
		key := uint64(rng.Intn(400))
		switch r := rng.Intn(24); {
		case r == 0: // rebuild the whole file, as a cache refresh does
			var keys []uint64
			for k := range c.keys {
				if rng.Intn(3) > 0 {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			recs := make([][]byte, len(keys))
			c.keys = make(map[uint64]bool)
			for i, k := range keys {
				recs[i] = cowtest.Rec(k, rng)
				c.keys[k] = true
			}
			c.f.Replace(pg, keys, recs)
		case r < 14 && !c.keys[key]:
			c.f.Insert(pg, key, cowtest.Rec(key, rng))
			c.keys[key] = true
		default:
			if c.f.Delete(pg, key) != c.keys[key] {
				panic("ordered file disagrees with the model")
			}
			delete(c.keys, key)
		}
	}
}

func (c *cowFile) Dump(pg *storage.Pager) [][]byte {
	var out [][]byte
	c.f.Scan(pg, func(_ uint64, rec []byte) bool {
		out = append(out, append([]byte(nil), rec...))
		return true
	})
	return out
}

func TestOrderedFileSnapshotsSurviveUpdates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		disk := storage.NewDisk(128)
		c := &cowFile{f: storage.NewOrderedFile(disk, 16, 8), keys: make(map[uint64]bool)}
		cowtest.Run(t, disk, c, 400, 3, seed)
	}
}

// A record slice handed to a Scan callback aliases the page image; an
// insert into the same page later in the same operation must not move
// bytes under it.
func TestOrderedFileWriteAfterRead(t *testing.T) {
	disk := storage.NewDisk(128)
	pg := storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
	f := storage.NewOrderedFile(disk, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for k := uint64(10); k < 15; k++ {
		f.Insert(pg, k, cowtest.Rec(k, rng))
	}
	pg.BeginOp()
	var seen []byte
	f.Scan(pg, func(_ uint64, rec []byte) bool { seen = rec; return false })
	want := append([]byte(nil), seen...)
	f.Insert(pg, 1, cowtest.Rec(1, rng)) // shifts every record of the page up a slot
	f.Delete(pg, 10)
	if !bytes.Equal(seen, want) {
		t.Fatalf("a slice from Scan changed under a later write in the same operation: %x, was %x", seen, want)
	}
}
