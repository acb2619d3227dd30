package cache

import (
	"encoding/binary"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

func newStore(cinval float64) (*Store, *storage.Pager, *metric.Meter) {
	costs := metric.DefaultCosts()
	costs.CInval = cinval
	m := metric.NewMeter(costs)
	p := storage.NewPager(storage.NewDisk(32), m)
	return NewStore(p.Disk()), p, m
}

func rec8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestDefineAndLookup(t *testing.T) {
	s, _, _ := newStore(0)
	e := s.Define(1, 8)
	if s.Entry(1) != e || s.MustEntry(1) != e {
		t.Fatal("lookup failed")
	}
	if s.Entry(2) != nil {
		t.Fatal("phantom entry")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if e.Valid() {
		t.Fatal("new entry should start invalid")
	}
	for name, fn := range map[string]func(){
		"redefine":       func() { s.Define(1, 8) },
		"MustEntry miss": func() { s.MustEntry(9) },
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

func TestReplaceValidatesAndStores(t *testing.T) {
	s, p, m := newStore(0)
	e := s.Define(1, 8)
	p.BeginOp()
	e.ReplaceAt(p, []uint64{1, 2, 3, 4, 5}, [][]byte{rec8(1), rec8(2), rec8(3), rec8(4), rec8(5)}, p.Disk().CommitStamp())
	p.BeginOp()
	if !e.Valid() || e.Len() != 5 || e.Pages() != 2 {
		t.Fatalf("Valid=%v Len=%d Pages=%d", e.Valid(), e.Len(), e.Pages())
	}
	// 2 pages, read-modify-write each.
	c := m.Snapshot()
	if c.PageReads != 2 || c.PageWrites != 2 {
		t.Fatalf("ReplaceAt charged %v, want 2 reads 2 writes", c)
	}
	m.Reset()
	var got []uint64
	e.ReadAll(p, func(k uint64, rec []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("ReadAll saw %d", len(got))
	}
	if r := m.Snapshot().PageReads; r != 2 {
		t.Fatalf("ReadAll charged %d reads, want 2", r)
	}
}

func TestInvalidateChargesCinval(t *testing.T) {
	s, p, m := newStore(60)
	e := s.Define(1, 8)
	e.MarkValid(p)
	e.Invalidate(p)
	if e.Valid() {
		t.Fatal("still valid after Invalidate")
	}
	// T3 semantics: every invalidation event is recorded, even when the
	// entry is already invalid.
	e.Invalidate(p)
	c := m.Snapshot()
	if c.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", c.Invalidations)
	}
	if got := m.Milliseconds(); got != 120 {
		t.Fatalf("cost = %v ms, want 120 (2 x C_inval=60)", got)
	}
}

func TestMarkValid(t *testing.T) {
	s, p, m := newStore(60)
	e := s.Define(1, 8)
	e.MarkValid(p)
	if !e.Valid() {
		t.Fatal("MarkValid did not validate")
	}
	if m.Milliseconds() != 0 {
		t.Fatal("MarkValid charged cost")
	}
	if e.File() == nil {
		t.Fatal("File accessor nil")
	}
}

func TestDifferentialMaintenanceTouchesOnePage(t *testing.T) {
	s, p, m := newStore(0)
	e := s.Define(1, 8)
	keys := make([]uint64, 12)
	recs := make([][]byte, 12)
	for i := range keys {
		keys[i] = uint64(i * 10)
		recs[i] = rec8(uint64(i))
	}
	e.ReplaceAt(p, keys, recs, p.Disk().CommitStamp()) // 3 pages
	e.MarkValid(p)
	p.BeginOp()
	m.Reset()
	// One differential delete + insert lands on specific pages only.
	e.File().Delete(p, 50)
	e.File().Insert(p, 55, rec8(99))
	p.BeginOp()
	c := m.Snapshot()
	if c.PageReads > 2 || c.PageWrites > 2 {
		t.Fatalf("differential maintenance charged %v; should touch at most the affected pages", c)
	}
	if !e.Valid() {
		t.Fatal("maintenance should not flip validity")
	}
}

// TestInvalidateLedgerOffAllocatesNothing: with no ledger or observer
// attached, invalidating an entry is a validity flip and one meter charge;
// the diagnosis hooks cost it a nil check each and no allocation.
func TestInvalidateLedgerOffAllocatesNothing(t *testing.T) {
	s, pg, m := newStore(0.1)
	e := s.Define(1, 8)
	if allocs := testing.AllocsPerRun(100, func() { e.Invalidate(pg) }); allocs != 0 {
		t.Fatalf("a ledger-off invalidation made %v allocations, want 0", allocs)
	}
	if s.LedgerRef() != nil || m.Snapshot().Invalidations == 0 {
		t.Fatalf("ledger %v, %d invalidations charged: not the ledger-off path", s.LedgerRef(), m.Snapshot().Invalidations)
	}
}
