package hashidx_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"dbproc/internal/dbtest/cowtest"
	"dbproc/internal/hashidx"
	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// cowTable adapts a hash file of 16-byte records (key, random payload) to
// the copy-on-write harness; 4 records fill a 64-byte page and there are 5
// buckets, so random churn over 80 keys (duplicates allowed) grows and
// shrinks overflow chains, freeing their pages, all the time.
type cowTable struct {
	tb    testing.TB
	t     *hashidx.Table
	count map[uint64]int
}

// cowKeys is the key space Mutate draws from.
const cowKeys = 80

func (c *cowTable) Mutate(pg *storage.Pager, rng *rand.Rand) {
	growing := rng.Intn(100) < 55
	for n := 1 + rng.Intn(8); n > 0; n-- {
		key := uint64(rng.Intn(cowKeys))
		if growing {
			c.t.Insert(pg, cowtest.Rec(key, rng))
			c.count[key]++
			continue
		}
		if c.t.Delete(pg, key) != (c.count[key] > 0) {
			panic("hash table disagrees with the model")
		}
		if c.count[key] > 0 {
			c.count[key]--
		}
	}
}

// Dump returns what ScanAll reads, having checked that the other access
// paths agree: ScanAll walks the pages alone, a probe — one key at a time
// and a batch at a time — goes through the bucket's key column, and all of
// it is part of what a snapshot must keep.
func (c *cowTable) Dump(pg *storage.Pager) [][]byte {
	var out [][]byte
	byKey := make(map[uint64][][]byte)
	c.t.ScanAll(pg, func(rec []byte) bool {
		cp := append([]byte(nil), rec...)
		out = append(out, cp)
		key := binary.LittleEndian.Uint64(cp)
		byKey[key] = append(byKey[key], cp)
		return true
	})
	// found checks one probed record against ScanAll's n-th of its key.
	found := func(how string, key uint64, n int, rec []byte) {
		if want := byKey[key]; n >= len(want) || !bytes.Equal(rec, want[n]) {
			c.tb.Errorf("%s of key %d: record %d is %x, not what ScanAll reads", how, key, n, rec)
		}
	}
	var keys []uint64
	var each, batch [cowKeys]int
	for key := uint64(0); key < cowKeys; key++ {
		c.t.LookupEach(pg, key, func(rec []byte) bool {
			found("probe", key, each[key], rec)
			each[key]++
			return true
		})
		if keys = append(keys, key); len(keys) == hashidx.BatchLen || key == cowKeys-1 {
			c.t.LookupBatch(pg, keys, func(i int, rec []byte) bool {
				found("batched probe", keys[i], batch[keys[i]], rec)
				batch[keys[i]]++
				return true
			})
			keys = keys[:0]
		}
	}
	for key, want := range byKey {
		if each[key] != len(want) || batch[key] != len(want) {
			c.tb.Errorf("key %d: a probe finds %d records, a batched probe %d, ScanAll reads %d", key, each[key], batch[key], len(want))
		}
	}
	return out
}

func TestTableSnapshotsSurviveUpdates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		disk := storage.NewDisk(64)
		c := &cowTable{tb: t, t: hashidx.New(disk, 16, 4, 5, 0), count: make(map[uint64]int)}
		cowtest.Run(t, disk, c, 400, 3, seed)
	}
}

// A record slice handed to a probe callback aliases the bucket page's
// image; deleting that record later in the same operation (which moves
// the bucket's last record into its slot) must not change it.
func TestTableWriteAfterRead(t *testing.T) {
	disk := storage.NewDisk(64)
	pg := storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
	tbl := hashidx.New(disk, 16, 4, 1, 0)
	rng := rand.New(rand.NewSource(1))
	for k := uint64(1); k <= 3; k++ {
		tbl.Insert(pg, cowtest.Rec(k, rng))
	}
	pg.BeginOp()
	var seen []byte
	tbl.LookupEach(pg, 1, func(rec []byte) bool { seen = rec; return false })
	want := append([]byte(nil), seen...)
	tbl.Delete(pg, 1)
	tbl.Insert(pg, cowtest.Rec(9, rng))
	if !bytes.Equal(seen, want) {
		t.Fatalf("a slice from LookupEach changed under a later write in the same operation: %x, was %x", seen, want)
	}
}
