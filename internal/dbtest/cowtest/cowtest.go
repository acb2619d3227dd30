// Package cowtest is the shared property harness for the copy-on-write
// invariant of the versioned structures (storage.OrderedFile, btree.Tree,
// hashidx.Table): whatever an update epoch does to a structure, every
// snapshot published before it keeps reading exactly what it read when it
// was published — directory and pages both. It imports only storage, so
// each structure's own test package can use it.
package cowtest

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// Structure adapts one copy-on-write structure to the harness.
type Structure interface {
	// Mutate applies a few random mutations through the epoch writer's
	// pager: inserts, deletes, whatever splits, frees or rebuilds pages.
	Mutate(pg *storage.Pager, rng *rand.Rand)
	// Dump returns a copy of every record pg sees, in the structure's scan
	// order.
	Dump(pg *storage.Pager) [][]byte
}

// Rec returns a 16-byte record: the little-endian key, then a random
// payload, so that bytes read from a stale page cannot pass for current.
func Rec(key uint64, rng *rand.Rand) []byte {
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint64(rec, key)
	binary.LittleEndian.PutUint64(rec[8:], rng.Uint64())
	return rec
}

// Poison makes disk's version GC fill every page buffer with 0xDB the
// moment it reclaims it — not later, when an update reuses it — so that
// whoever still holds the image returns garbage instead of plausible stale
// bytes. Call it before concurrent access starts.
func Poison(disk *storage.Disk) {
	disk.OnReclaim(func(buf []byte) {
		for i := range buf {
			buf[i] = 0xDB
		}
	})
}

// Run drives steps update epochs over s, one commit stamp each, with
// version GC after every publish — the engine's sequence. A deep copy of
// the contents is taken at every publish. Meanwhile readers goroutines
// keep acquiring snapshots and comparing what they read through them with
// the copy of their stamp (run under -race, this is also the proof that
// published state is never written), and every seventh snapshot is
// retained to the end, pinning the GC horizon, and checked again after the
// last epoch. Version GC poisons every page image it reclaims for reuse
// (Poison), so a reader — concurrent or pinned — whose snapshot could
// still reach a reclaimed image reads 0xDB bytes, and races with the
// scribble under -race.
func Run(t *testing.T, disk *storage.Disk, s Structure, steps, readers int, seed int64) {
	t.Helper()
	newPager := func() *storage.Pager {
		pg := storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
		pg.SetCharging(false)
		return pg
	}
	Poison(disk)

	var mu sync.Mutex // guards copies
	w := newPager()
	w.BeginOp()
	copies := map[uint64][][]byte{0: s.Dump(w)}
	// check compares what pg, reading at stamp, sees with the copy taken
	// when stamp was published.
	check := func(pg *storage.Pager, stamp uint64, when string) {
		mu.Lock()
		want := copies[stamp]
		mu.Unlock()
		pg.BeginOp()
		got := s.Dump(pg)
		if len(got) != len(want) {
			t.Errorf("%s: snapshot %d reads %d records, held %d when published", when, stamp, len(got), len(want))
			return
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: snapshot %d record %d reads %x, was %x when published", when, stamp, i, got[i], want[i])
				return
			}
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pg := newPager()
			for {
				select {
				case <-done:
					return
				default:
				}
				check(pg, pg.OpenScope(false), "concurrent reader")
				pg.CloseScope(0)
			}
		}()
	}

	type retained struct {
		stamp uint64
		pg    *storage.Pager
	}
	var kept []retained
	rng := rand.New(rand.NewSource(seed))
	for stamp := uint64(1); stamp <= uint64(steps); stamp++ {
		w.OpenScope(true)
		w.BeginOp()
		s.Mutate(w, rng)
		w.Flush()
		now := s.Dump(w) // the writer reads its own staged state
		mu.Lock()
		copies[stamp] = now
		mu.Unlock()
		w.CloseScope(stamp)
		if stamp%7 == 0 {
			pg := newPager()
			kept = append(kept, retained{pg.OpenScope(false), pg})
		}
		disk.GCVersions()
	}
	close(done)
	wg.Wait()

	for _, k := range kept {
		check(k.pg, k.stamp, "retained snapshot")
		k.pg.CloseScope(0)
	}
	disk.GCVersions()
	pg := newPager()
	check(pg, pg.OpenScope(false), "after the last GC")
	pg.CloseScope(0)
}
