package hashidx

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

func keyOf(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

func recFor(key, val uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], val)
	return b
}

func newTestTable(pageSize, buckets int) (*Table, *storage.Pager, *metric.Meter) {
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(pageSize), m)
	return New(p.Disk(), 16, buckets, 0), p, m
}

func TestInsertLookup(t *testing.T) {
	tbl, p, _ := newTestTable(64, 8)
	for i := uint64(0); i < 100; i++ {
		tbl.Insert(p, recFor(i, i*2))
	}
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for i := uint64(0); i < 100; i++ {
		rec, ok := tbl.Lookup(p, i)
		if !ok || binary.LittleEndian.Uint64(rec[8:]) != i*2 {
			t.Fatalf("Lookup(%d) = %v, %v", i, rec, ok)
		}
	}
	if _, ok := tbl.Lookup(p, 1000); ok {
		t.Fatal("Lookup(1000) hit")
	}
	if tbl.NumBuckets() != 8 || tbl.PerPage() != 4 {
		t.Fatalf("geometry: %d buckets, %d per page", tbl.NumBuckets(), tbl.PerPage())
	}
}

func TestOverflowChains(t *testing.T) {
	tbl, p, _ := newTestTable(64, 2) // everything lands in 2 buckets
	for i := uint64(0); i < 64; i++ {
		tbl.Insert(p, recFor(i, i))
	}
	// 32 records per bucket at 4 per page: 8 pages per bucket.
	if got := tbl.Pages(); got != 16 {
		t.Fatalf("Pages = %d, want 16", got)
	}
	for i := uint64(0); i < 64; i++ {
		if _, ok := tbl.Lookup(p, i); !ok {
			t.Fatalf("Lookup(%d) missed in overflow chain", i)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tbl, p, _ := newTestTable(64, 4)
	tbl.Insert(p, recFor(5, 1))
	tbl.Insert(p, recFor(5, 2))
	tbl.Insert(p, recFor(5, 3))
	var vals []uint64
	tbl.LookupEach(p, 5, func(rec []byte) bool {
		vals = append(vals, binary.LittleEndian.Uint64(rec[8:]))
		return true
	})
	if len(vals) != 3 {
		t.Fatalf("LookupEach found %d records, want 3", len(vals))
	}
	// Early stop after the first.
	count := 0
	tbl.LookupEach(p, 5, func([]byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
	// Delete removes exactly one.
	if !tbl.Delete(p, 5) {
		t.Fatal("Delete missed")
	}
	count = 0
	tbl.LookupEach(p, 5, func([]byte) bool { count++; return true })
	if count != 2 {
		t.Fatalf("after delete, %d records remain, want 2", count)
	}
}

func TestDeleteCompactsAndFreesPages(t *testing.T) {
	tbl, p, _ := newTestTable(64, 1)
	for i := uint64(0); i < 12; i++ { // 3 pages in the single bucket
		tbl.Insert(p, recFor(i, i))
	}
	if tbl.Pages() != 3 {
		t.Fatalf("Pages = %d", tbl.Pages())
	}
	allocated := p.Disk().NumPages()
	for i := uint64(0); i < 8; i++ {
		if !tbl.Delete(p, i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tbl.Len() != 4 || tbl.Pages() != 1 {
		t.Fatalf("Len=%d Pages=%d after deletes, want 4 and 1", tbl.Len(), tbl.Pages())
	}
	for i := uint64(8); i < 12; i++ {
		if _, ok := tbl.Lookup(p, i); !ok {
			t.Fatalf("Lookup(%d) missed after compaction", i)
		}
	}
	// Freed pages are reused on regrowth.
	for i := uint64(0); i < 8; i++ {
		tbl.Insert(p, recFor(i, i))
	}
	if got := p.Disk().NumPages(); got != allocated {
		t.Fatalf("regrowth allocated new pages: %d vs %d", got, allocated)
	}
	if tbl.Delete(p, 999) {
		t.Fatal("Delete of absent key hit")
	}
}

func TestScanAll(t *testing.T) {
	tbl, p, _ := newTestTable(64, 4)
	want := map[uint64]bool{}
	for i := uint64(0); i < 50; i++ {
		tbl.Insert(p, recFor(i, i))
		want[i] = true
	}
	seen := map[uint64]bool{}
	tbl.ScanAll(p, func(rec []byte) bool {
		seen[keyOf(rec)] = true
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("ScanAll saw %d distinct keys, want %d", len(seen), len(want))
	}
	count := 0
	tbl.ScanAll(p, func([]byte) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestProbeIOCharges(t *testing.T) {
	tbl, p, m := newTestTable(64, 16)
	p.SetCharging(false)
	for i := uint64(0); i < 64; i++ { // exactly 4 per bucket: one page each
		tbl.Insert(p, recFor(i, i))
	}
	p.SetCharging(true)

	// A single probe reads exactly one bucket page.
	p.BeginOp()
	m.Reset()
	tbl.Lookup(p, 7)
	if got := m.Snapshot().PageReads; got != 1 {
		t.Fatalf("single probe charged %d reads, want 1", got)
	}

	// k probes within one operation touch at most min(k, buckets) distinct
	// pages — repeated buckets are free, matching the Yao-function model.
	p.BeginOp()
	m.Reset()
	for i := 0; i < 32; i++ {
		tbl.Lookup(p, uint64(i%8)) // 8 distinct buckets
	}
	if got := m.Snapshot().PageReads; got != 8 {
		t.Fatalf("32 probes over 8 buckets charged %d reads, want 8", got)
	}
}

// TestProbeReadsWholeChain: the key column tells a probe which chain
// pages hold no match, and it must read them all the same — the model
// charges a probe for the chain, so skipping would change simulated cost.
// The counts are those of the probe loop before the column existed.
func TestProbeReadsWholeChain(t *testing.T) {
	tbl, p, m := newTestTable(64, 1)
	p.SetCharging(false)
	for i := uint64(0); i < 10; i++ { // one bucket, a chain of 3 pages (4+4+2)
		tbl.Insert(p, recFor(i, i))
	}
	p.SetCharging(true)
	reads := func(probe func()) int64 {
		p.BeginOp()
		m.Reset()
		probe()
		return m.Snapshot().PageReads
	}
	all := func(key uint64) func() {
		return func() { tbl.LookupEach(p, key, func([]byte) bool { return true }) }
	}
	for _, c := range []struct {
		what  string
		probe func()
		want  int64
	}{
		{"LookupEach of a key on the first page", all(1), 3},
		{"LookupEach of an absent key", all(99), 3},
		{"Lookup of a key on the second page", func() { tbl.Lookup(p, 5) }, 2},
		{"Lookup of a key on the first page", func() { tbl.Lookup(p, 0) }, 1},
		{"Delete of a key on the second page", func() { tbl.Delete(p, 6) }, 3},
	} {
		if got := reads(c.probe); got != c.want {
			t.Errorf("%s charged %d reads, want %d", c.what, got, c.want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(64), m)
	for name, fn := range map[string]func(){
		"record too large": func() { New(p.Disk(), 128, 4, 0) },
		"zero buckets":     func() { New(p.Disk(), 16, 0, 0) },
		"key past record":  func() { New(p.Disk(), 16, 4, 9) },
		"bad record":       func() { tbl, p, _ := newTestTable(64, 4); tbl.Insert(p, make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: the table agrees with a reference multimap under random
// operations.
func TestTableMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		tbl, p, _ := newTestTable(64, 4)
		ref := map[uint64]int{} // key -> multiplicity
		total := 0
		rng := rand.New(rand.NewSource(seed))
		for _, op := range opsRaw {
			k := uint64(rng.Intn(20))
			if op%3 > 0 {
				tbl.Insert(p, recFor(k, uint64(op)))
				ref[k]++
				total++
			} else {
				had := tbl.Delete(p, k)
				if had != (ref[k] > 0) {
					return false
				}
				if ref[k] > 0 {
					ref[k]--
					total--
				}
			}
		}
		if tbl.Len() != total {
			return false
		}
		for k, want := range ref {
			got := 0
			tbl.LookupEach(p, k, func([]byte) bool { got++; return true })
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
