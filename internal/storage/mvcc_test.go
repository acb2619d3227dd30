package storage

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"dbproc/internal/metric"
)

// epochWrite runs one whole update — open the epoch, rewrite the page's
// first byte, flush, publish at stamp — the way a session does.
func epochWrite(d *Disk, id PageID, b byte, stamp uint64) {
	w := pagerOn(d)
	d.BeginEpoch()
	w.SetEpoch(true)
	w.BeginOp()
	w.Update(id)[0] = b
	w.Flush()
	d.Publish(stamp)
	w.SetEpoch(false)
}

func pagerOn(d *Disk) *Pager {
	return NewPager(d, metric.NewMeter(metric.DefaultCosts()))
}

// TestSnapshotReadNeverSeesLaterPublish forces the interleaving that let a
// reader at stamp S return the bytes of S+1: the page's first epoch write
// and its Publish land between the reader's two steps (resolve the newest
// image, find the version the snapshot may see). The reader must still get
// the bytes its snapshot was taken over.
func TestSnapshotReadNeverSeesLaterPublish(t *testing.T) {
	d := NewDisk(64)
	id := d.Alloc()
	d.WriteRaw(id, []byte{1})
	d.EnableMVCC()

	snap, release := d.AcquireSnapshot()
	defer release()
	r := pagerOn(d)
	r.SetSnapshot(snap)
	r.BeginOp()

	fired := false
	d.snapReadHook = func() {
		d.snapReadHook = nil
		fired = true
		epochWrite(d, id, 2, snap+1)
	}
	if got := r.Read(id)[0]; got != 1 {
		t.Fatalf("reader at stamp %d read %d: the bytes of stamp %d", snap, got, snap+1)
	}
	if !fired {
		t.Fatal("the snapshot read never reached the hook")
	}

	later, releaseLater := d.AcquireSnapshot()
	defer releaseLater()
	r2 := pagerOn(d)
	r2.SetSnapshot(later)
	r2.BeginOp()
	if got := r2.Read(id)[0]; later != snap+1 || got != 2 {
		t.Fatalf("reader at stamp %d read %d, want stamp %d and byte 2", later, got, snap+1)
	}
}

// TestReadSliceSurvivesLaterUpdate: a slice handed out by Read is an
// immutable image; dirtying the same page later in the same operation
// works on a copy.
func TestReadSliceSurvivesLaterUpdate(t *testing.T) {
	p, _ := newTestPager(32)
	id := p.Disk().Alloc()
	p.Disk().WriteRaw(id, []byte("before"))
	p.BeginOp()
	seen := p.Read(id)
	want := append([]byte(nil), seen...)
	copy(p.Update(id), "after!")
	if !bytes.Equal(seen, want) {
		t.Fatalf("Update mutated a slice Read returned: %q", seen[:6])
	}
	if got := p.Read(id)[:6]; string(got) != "after!" {
		t.Fatalf("Read after Update sees %q, want the operation's own write", got)
	}
	p.Flush()
	flushed := p.Read(id)
	copy(p.Update(id), "third!")
	if string(flushed[:6]) != "after!" || string(p.Disk().ReadRaw(id)[:6]) != "after!" {
		t.Fatal("re-dirtying a flushed frame wrote into the image Flush handed to the disk")
	}
}

// TestGCVisitsOnlyWhatWasPublished: a page or directory enters the
// pruning queue when it gains a version and leaves it once cut back to
// one; what a pinned snapshot still needs stays queued.
func TestGCVisitsOnlyWhatWasPublished(t *testing.T) {
	d := NewDisk(64)
	ids := make([]PageID, 100)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	d.EnableMVCC()
	m := d.mvcc

	epochWrite(d, ids[3], 1, 1)
	if len(m.gcPages) != 1 {
		t.Fatalf("%d pages queued after an epoch that wrote one", len(m.gcPages))
	}
	d.GCVersions()
	if len(m.gcPages) != 0 || d.page(ids[3]).head.Load().prev.Load() != nil {
		t.Fatal("GC with no reader left the page queued or its old version linked")
	}

	pinned, release := d.AcquireSnapshot() // stamp 1
	epochWrite(d, ids[3], 2, 2)
	epochWrite(d, ids[4], 2, 3)
	d.GCVersions()
	if len(m.gcPages) != 2 {
		t.Fatalf("%d pages queued while snapshot %d pins their old versions, want 2", len(m.gcPages), pinned)
	}
	r := pagerOn(d)
	r.SetSnapshot(pinned)
	r.BeginOp()
	if r.Read(ids[3])[0] != 1 || r.Read(ids[4])[0] != 0 {
		t.Fatal("GC cut a version the pinned snapshot reads")
	}
	release()
	d.GCVersions()
	if len(m.gcPages) != 0 {
		t.Fatalf("%d pages still queued after the horizon passed them", len(m.gcPages))
	}
}

// TestBeginOpDropsOutgrownFrameTable: clearing a Go map costs what it
// once grew to, so a pager that ran one huge operation (a bulk load) must
// not pay for it at every later operation boundary. Equal-sized
// operations keep their map.
func TestBeginOpDropsOutgrownFrameTable(t *testing.T) {
	p, _ := newTestPager(64)
	ids := make([]PageID, 3000)
	for i := range ids {
		ids[i] = p.Disk().Alloc()
	}
	tableOf := func() uintptr { return reflect.ValueOf(p.frames).Pointer() }

	p.BeginOp()
	for _, id := range ids {
		p.Read(id)
	}
	big := tableOf()
	p.BeginOp() // closes the 3000-page operation: nothing smaller seen yet
	p.Read(ids[0])
	p.BeginOp() // closes a 1-page operation on a table grown for 3000
	if tableOf() == big {
		t.Fatal("BeginOp kept a frame table grown 3000x past the operation it closed")
	}
	small := tableOf()
	for op := 0; op < 10; op++ {
		for _, id := range ids[:20] {
			p.Read(id)
		}
		p.BeginOp()
	}
	steady := tableOf()
	for op := 0; op < 10; op++ {
		for _, id := range ids[:20] {
			p.Read(id)
		}
		p.BeginOp()
	}
	if small == big || tableOf() != steady {
		t.Fatal("BeginOp replaced the frame table between equal-sized operations")
	}
}

// TestColdReadAllocatesOnlyItsFrame: a cold Read resolves the page to an
// existing image — the frame-table entry is its one allocation, and
// nothing page-sized is allocated or copied, with or without a snapshot.
func TestColdReadAllocatesOnlyItsFrame(t *testing.T) {
	const pageSize = 4000
	for _, mode := range []string{"live", "snapshot"} {
		p, _ := newTestPager(pageSize)
		d := p.Disk()
		id := d.Alloc()
		d.WriteRaw(id, []byte{7})
		if mode == "snapshot" {
			d.EnableMVCC()
			epochWrite(d, id, 8, 1)
			s, release := d.AcquireSnapshot()
			defer release()
			p.SetSnapshot(s)
		}
		p.BeginOp()
		p.Read(id)
		if n := testing.AllocsPerRun(200, func() { p.BeginOp(); p.Read(id) }); n != 1 {
			t.Errorf("%s: cold Read makes %v allocations, want 1 (the frame)", mode, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			p.BeginOp()
			p.Read(id)
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / 1000; perOp > pageSize/8 {
			t.Errorf("%s: cold Read allocates %d bytes, a page is %d", mode, perOp, pageSize)
		}
	}
}
