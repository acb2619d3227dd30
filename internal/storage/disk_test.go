package storage

import (
	"bytes"
	"testing"

	"dbproc/internal/metric"
)

func newTestPager(pageSize int) (*Pager, *metric.Meter) {
	m := metric.NewMeter(metric.DefaultCosts())
	return NewPager(NewDisk(pageSize), m), m
}

func TestDiskAllocFreeReuse(t *testing.T) {
	d := NewDisk(128)
	a := d.Alloc()
	b := d.Alloc()
	if a == b {
		t.Fatal("Alloc returned the same page twice")
	}
	d.WriteRaw(a, []byte("hello"))
	if got := d.ReadRaw(a)[:5]; !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("ReadRaw = %q", got)
	}
	d.Free(a)
	c := d.Alloc()
	if c != a {
		t.Fatalf("expected freed page %d to be reused, got %d", a, c)
	}
	if got := d.ReadRaw(c); !bytes.Equal(got, make([]byte, 128)) {
		t.Fatal("reused page was not zeroed")
	}
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", d.NumPages())
	}
}

func TestDiskPanics(t *testing.T) {
	d := NewDisk(64)
	id := d.Alloc()
	for name, fn := range map[string]func(){
		"read out of range":  func() { d.ReadRaw(id + 1) },
		"write out of range": func() { d.WriteRaw(-1, nil) },
		"oversized write":    func() { d.WriteRaw(id, make([]byte, 65)) },
		"zero page size":     func() { NewDisk(0) },
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

func TestPagerChargesFirstReadOnly(t *testing.T) {
	p, m := newTestPager(100)
	id := p.Disk().Alloc()
	p.Disk().WriteRaw(id, []byte("abc"))

	p.BeginOp()
	_ = p.Read(id)
	_ = p.Read(id)
	_ = p.Read(id)
	if got := m.Snapshot().PageReads; got != 1 {
		t.Fatalf("repeated reads in one op charged %d, want 1", got)
	}
	p.BeginOp()
	_ = p.Read(id)
	if got := m.Snapshot().PageReads; got != 2 {
		t.Fatalf("read in new op charged %d total, want 2", got)
	}
}

func TestPagerUpdateChargesReadAndWrite(t *testing.T) {
	p, m := newTestPager(100)
	id := p.Disk().Alloc()
	p.BeginOp()
	buf := p.Update(id)
	buf[0] = 42
	buf = p.Update(id) // same op: no extra charge
	buf[1] = 43
	p.BeginOp() // flushes
	c := m.Snapshot()
	if c.PageReads != 1 || c.PageWrites != 1 {
		t.Fatalf("counters %v, want 1 read 1 write", c)
	}
	if got := p.Disk().ReadRaw(id); got[0] != 42 || got[1] != 43 {
		t.Fatalf("flush did not persist: %v", got[:2])
	}
}

func TestPagerOverwriteSkipsReadCharge(t *testing.T) {
	p, m := newTestPager(100)
	id := p.Disk().Alloc()
	p.Disk().WriteRaw(id, []byte{9, 9, 9})
	p.BeginOp()
	buf := p.Overwrite(id, 100)
	if buf[0] != 0 {
		t.Fatal("Overwrite buffer not zeroed")
	}
	buf[0] = 7
	p.Flush()
	c := m.Snapshot()
	if c.PageReads != 0 || c.PageWrites != 1 {
		t.Fatalf("counters %v, want 0 reads 1 write", c)
	}
	if got := p.Disk().ReadRaw(id)[0]; got != 7 {
		t.Fatalf("persisted %d, want 7", got)
	}
}

func TestPagerOverwriteAfterReadZeroes(t *testing.T) {
	p, _ := newTestPager(100)
	id := p.Disk().Alloc()
	p.Disk().WriteRaw(id, []byte{1, 2, 3})
	p.BeginOp()
	if got := p.Read(id)[1]; got != 2 {
		t.Fatalf("Read saw %d", got)
	}
	buf := p.Overwrite(id, 100)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d after Overwrite, want 0", i, b)
		}
	}
}

// TestPagerOverwriteAtNewLength: overwriting a page already dirty in the
// operation at another length gives a zeroed buffer of the new length, and
// the one write the flush charges stays with the component that dirtied
// the page first.
func TestPagerOverwriteAtNewLength(t *testing.T) {
	p, m := newTestPager(100)
	id := p.Disk().Alloc()
	p.BeginOp()
	m.SetComponent(metric.CompBTree)
	p.Overwrite(id, 64)[0] = 1
	m.SetComponent(metric.CompCache)
	buf := p.Overwrite(id, 32)
	if len(buf) != 32 || buf[0] != 0 {
		t.Fatalf("second Overwrite gave %d bytes, first byte %d; want 32 zeroed", len(buf), buf[0])
	}
	p.Flush()
	bd := m.Breakdown()
	if bd[metric.CompBTree].PageWrites != 1 || bd.Total().PageWrites != 1 {
		t.Fatalf("writes by component %v, want one, charged to btree", bd)
	}
	if got := len(p.Disk().ReadRaw(id)); got != 32 {
		t.Fatalf("flushed image is %d bytes, want 32", got)
	}
}

func TestPagerFlushIdempotent(t *testing.T) {
	p, m := newTestPager(100)
	id := p.Disk().Alloc()
	p.Update(id)[0] = 1
	p.Flush()
	p.Flush() // clean frame: no second write
	if got := m.Snapshot().PageWrites; got != 1 {
		t.Fatalf("double flush charged %d writes, want 1", got)
	}
}

func TestPagerChargingToggle(t *testing.T) {
	p, m := newTestPager(100)
	id := p.Disk().Alloc()
	if prev := p.SetCharging(false); !prev {
		t.Fatal("charging should start enabled")
	}
	if p.Charging() {
		t.Fatal("Charging() should be false")
	}
	p.BeginOp()
	p.Update(id)[0] = 1
	p.BeginOp()
	if got := m.Milliseconds(); got != 0 {
		t.Fatalf("uncharged I/O cost %v ms", got)
	}
	p.SetCharging(true)
	p.Read(id)
	if got := m.Snapshot().PageReads; got != 1 {
		t.Fatalf("re-enabled charging recorded %d reads, want 1", got)
	}
}

func TestPagerReadSeesPriorOpWrites(t *testing.T) {
	p, _ := newTestPager(100)
	id := p.Disk().Alloc()
	p.BeginOp()
	p.Update(id)[5] = 99
	p.BeginOp()
	if got := p.Read(id)[5]; got != 99 {
		t.Fatalf("next op read %d, want 99", got)
	}
}
