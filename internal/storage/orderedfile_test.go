package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newOrdered(t *testing.T) (*OrderedFile, *Pager) {
	t.Helper()
	p, _ := newTestPager(32) // 4 records of 8 bytes per page
	return NewOrderedFile(p.Disk(), 8, 4), p
}

func rec8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestOrderedFileInsertGetDelete(t *testing.T) {
	f, p := newOrdered(t)
	keys := []uint64{50, 10, 30, 20, 40, 60, 5, 55}
	for _, k := range keys {
		f.Insert(p, k, rec8(k*100))
	}
	if f.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(keys))
	}
	for _, k := range keys {
		got, ok := f.Get(p, k)
		if !ok || binary.LittleEndian.Uint64(got) != k*100 {
			t.Fatalf("Get(%d) = %v, %v", k, got, ok)
		}
		if !f.Contains(k) {
			t.Fatalf("Contains(%d) = false", k)
		}
	}
	if _, ok := f.Get(p, 99); ok {
		t.Fatal("Get(99) should miss")
	}
	if f.Delete(p, 99) {
		t.Fatal("Delete(99) should miss")
	}
	if !f.Delete(p, 30) || f.Contains(30) {
		t.Fatal("Delete(30) failed")
	}
	if f.Len() != len(keys)-1 {
		t.Fatalf("Len after delete = %d", f.Len())
	}
}

func TestOrderedFileScanOrder(t *testing.T) {
	f, p := newOrdered(t)
	perm := rand.New(rand.NewSource(7)).Perm(100)
	for _, k := range perm {
		f.Insert(p, uint64(k), rec8(uint64(k)))
	}
	var got []uint64
	f.Scan(p, func(k uint64, rec []byte) bool {
		if binary.LittleEndian.Uint64(rec) != k {
			t.Fatalf("record for key %d holds %v", k, rec)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 100 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Scan out of order or incomplete: %v", got)
	}
}

func TestOrderedFileScanRange(t *testing.T) {
	f, p := newOrdered(t)
	for k := uint64(0); k < 50; k += 2 { // even keys 0..48
		f.Insert(p, k, rec8(k))
	}
	var got []uint64
	f.ScanRange(p, 10, 20, func(k uint64, _ []byte) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("ScanRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanRange = %v, want %v", got, want)
		}
	}
	// Degenerate ranges.
	f.ScanRange(p, 20, 10, func(uint64, []byte) bool { t.Fatal("lo>hi visited"); return true })
	var hits int
	f.ScanRange(p, 49, 1000, func(uint64, []byte) bool { hits++; return true })
	if hits != 0 {
		t.Fatalf("range past top visited %d", hits)
	}
}

func TestOrderedFileDuplicatePanics(t *testing.T) {
	f, p := newOrdered(t)
	f.Insert(p, 5, rec8(5))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert should panic")
		}
	}()
	f.Insert(p, 5, rec8(6))
}

func TestOrderedFileEmptyPageFreed(t *testing.T) {
	f, p := newOrdered(t)
	for k := uint64(0); k < 8; k++ {
		f.Insert(p, k, rec8(k))
	}
	pagesBefore := f.Pages()
	for k := uint64(0); k < 8; k++ {
		f.Delete(p, k)
	}
	if f.Len() != 0 || f.Pages() != 0 {
		t.Fatalf("Len=%d Pages=%d after deleting all", f.Len(), f.Pages())
	}
	_ = pagesBefore
	// All pages returned to the allocator: inserting again reuses them.
	n := p.Disk().NumPages()
	for k := uint64(0); k < 8; k++ {
		f.Insert(p, k, rec8(k))
	}
	if got := p.Disk().NumPages(); got != n {
		t.Fatalf("reinsert allocated pages: %d vs %d", got, n)
	}
}

func TestOrderedFileIOCharges(t *testing.T) {
	p, m := newTestPager(32)
	f := NewOrderedFile(p.Disk(), 8, 4)
	// Load 16 records (4 full pages) without charging.
	p.SetCharging(false)
	for k := uint64(0); k < 32; k += 2 {
		f.Insert(p, k, rec8(k))
	}
	p.SetCharging(true)
	p.BeginOp()

	// One insert into an existing page: read + (on flush) write of 1 page,
	// possibly plus a split write.
	m.Reset()
	f.Insert(p, 1, rec8(1))
	p.BeginOp()
	c := m.Snapshot()
	if c.PageReads != 1 {
		t.Fatalf("insert charged %d reads, want 1", c.PageReads)
	}
	if c.PageWrites < 1 || c.PageWrites > 2 {
		t.Fatalf("insert charged %d writes, want 1 or 2", c.PageWrites)
	}

	// A delete is a read-modify-write of exactly one page.
	m.Reset()
	f.Delete(p, 1)
	p.BeginOp()
	c = m.Snapshot()
	if c.PageReads != 1 || c.PageWrites != 1 {
		t.Fatalf("delete charged %v, want 1 read 1 write", c)
	}

	// Scanning reads each page once.
	m.Reset()
	f.Scan(p, func(uint64, []byte) bool { return true })
	if got := m.Snapshot().PageReads; got != int64(f.Pages()) {
		t.Fatalf("scan charged %d reads over %d pages", got, f.Pages())
	}
}

func TestOrderedFileReplaceCharges2IOsPerPage(t *testing.T) {
	p, m := newTestPager(32)
	f := NewOrderedFile(p.Disk(), 8, 4)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9} // 3 pages at 4/page
	recs := make([][]byte, len(keys))
	for i, k := range keys {
		recs[i] = rec8(k)
	}
	p.BeginOp()
	m.Reset()
	f.Replace(p, keys, recs)
	p.BeginOp()
	c := m.Snapshot()
	if c.PageReads != 3 || c.PageWrites != 3 {
		t.Fatalf("Replace charged %v, want 3 reads 3 writes (2 I/Os per page)", c)
	}
	if f.Len() != 9 || f.Pages() != 3 {
		t.Fatalf("Replace left Len=%d Pages=%d", f.Len(), f.Pages())
	}
	got, ok := f.Get(p, 5)
	if !ok || !bytes.Equal(got, rec8(5)) {
		t.Fatal("Replace contents wrong")
	}
}

func TestOrderedFileReplaceValidation(t *testing.T) {
	f, p := newOrdered(t)
	for name, fn := range map[string]func(){
		"length mismatch": func() { f.Replace(p, []uint64{1}, nil) },
		"unsorted keys":   func() { f.Replace(p, []uint64{2, 1}, [][]byte{rec8(2), rec8(1)}) },
		"bad record size": func() { f.Replace(p, []uint64{1}, [][]byte{{1}}) },
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

// Property: after any sequence of inserts and deletes the file agrees with
// a reference map and scans in sorted order.
func TestOrderedFileMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		p, _ := newTestPager(32)
		of := NewOrderedFile(p.Disk(), 8, 4)
		ref := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range opsRaw {
			k := uint64(rng.Intn(40))
			if op%2 == 0 {
				if _, dup := ref[k]; !dup {
					v := rng.Uint64()
					of.Insert(p, k, rec8(v))
					ref[k] = v
				}
			} else {
				had := of.Delete(p, k)
				_, want := ref[k]
				if had != want {
					return false
				}
				delete(ref, k)
			}
		}
		if of.Len() != len(ref) {
			return false
		}
		prev := int64(-1)
		ok := true
		of.Scan(p, func(k uint64, rec []byte) bool {
			if int64(k) <= prev {
				ok = false
				return false
			}
			prev = int64(k)
			v, in := ref[k]
			if !in || binary.LittleEndian.Uint64(rec) != v {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
