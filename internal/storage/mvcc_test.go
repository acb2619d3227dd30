package storage

import (
	"bytes"
	"reflect"
	"testing"

	"dbproc/internal/metric"
)

// epochWrite runs one whole update — open the epoch, rewrite the page's
// first byte, flush, publish at stamp — the way a session does.
func epochWrite(d *Disk, id PageID, b byte, stamp uint64) {
	w := pagerOn(d)
	w.OpenScope(true)
	w.BeginOp()
	w.Update(id)[0] = b
	w.CloseScope(stamp)
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

	r := pagerOn(d)
	snap := r.OpenScope(false)
	defer r.CloseScope(0)
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

	r2 := pagerOn(d)
	later := r2.OpenScope(false)
	defer r2.CloseScope(0)
	r2.BeginOp()
	if got := r2.Read(id)[0]; later != snap+1 || got != 2 {
		t.Fatalf("reader at stamp %d read %d, want stamp %d and byte 2", later, got, snap+1)
	}
}

// TestFreezeRule: until the disk's first snapshot or epoch, a write
// outside an epoch is bulk load, and that first scope publishes it. From
// then on a versioned directory changes only inside an epoch: a mutation
// outside one panics, because snapshot readers would go on walking the
// copy published before it. A cache entry file rewritten at query time
// (an unversioned directory) is exempt.
func TestFreezeRule(t *testing.T) {
	d := NewDisk(64)
	versioned, unversioned := NewOrderedFile(d, 8, 8), NewOrderedFile(d, 8, 8)
	unversioned.Unversion()
	p := pagerOn(d)
	p.BeginOp()
	versioned.Insert(p, 1, rec8(1))
	p.Flush()

	r := pagerOn(d)
	r.OpenScope(false)
	r.BeginOp()
	if got := len(versioned.Records(r)); got != 1 {
		t.Fatalf("the first snapshot reads %d records of the bulk load, want 1", got)
	}
	r.CloseScope(0)

	unversioned.Insert(p, 1, rec8(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a versioned directory was mutated outside an epoch after the freeze without a panic")
			}
		}()
		versioned.Insert(p, 2, rec8(2))
	}()
	if versioned.Len() != 1 {
		t.Fatalf("the refused insert changed the directory: %d records", versioned.Len())
	}

	w := pagerOn(d)
	w.OpenScope(true)
	w.BeginOp()
	versioned.Insert(w, 3, rec8(3))
	w.CloseScope(1)
	r.OpenScope(false)
	r.BeginOp()
	if got := len(versioned.Records(r)); got != 2 {
		t.Fatalf("a snapshot after the epoch reads %d records, want 2", got)
	}
	r.CloseScope(0)
}

// TestReadSliceSurvivesLaterUpdate pins the within-operation half of the
// read contract, on a pager outside any scope (bulk load): a slice handed
// out by Read stays as it was until the pager's next BeginOp — dirtying
// the same page later in the same operation, before or after a Flush,
// works on a copy. (How long a slice lives *across* operations — until
// the snapshot is released or the epoch publishes, after which version GC
// may reclaim the image — is pinned by the reclaim tests and the poisoned
// cowtest harness.)
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
	m := &d.mvcc

	epochWrite(d, ids[3], 1, 1)
	if len(m.gcPages) != 1 {
		t.Fatalf("%d pages queued after an epoch that wrote one", len(m.gcPages))
	}
	d.GCVersions()
	if len(m.gcPages) != 0 || d.page(ids[3]).head.Load().prev.Load() != nil {
		t.Fatal("GC with no reader left the page queued or its old version linked")
	}

	r := pagerOn(d)
	pinned := r.OpenScope(false) // stamp 1
	epochWrite(d, ids[3], 2, 2)
	epochWrite(d, ids[4], 2, 3)
	d.GCVersions()
	if len(m.gcPages) != 2 {
		t.Fatalf("%d pages queued while snapshot %d pins their old versions, want 2", len(m.gcPages), pinned)
	}
	r.BeginOp()
	if r.Read(ids[3])[0] != 1 || r.Read(ids[4])[0] != 0 {
		t.Fatal("GC cut a version the pinned snapshot reads")
	}
	r.CloseScope(0)
	d.GCVersions()
	if len(m.gcPages) != 0 {
		t.Fatalf("%d pages still queued after the horizon passed them", len(m.gcPages))
	}
}

// TestBeginOpLeavesNoFrameSet: the frame table outlives every operation,
// so a slot left set at the boundary would keep a superseded page image
// reachable (and resident) for as long as the session lives. After
// BeginOp no slot may hold anything, whichever way the operation used it:
// read, dirtied, flushed mid-operation, or dropped.
func TestBeginOpLeavesNoFrameSet(t *testing.T) {
	p, _ := newTestPager(64)
	ids := make([]PageID, 40)
	for i := range ids {
		ids[i] = p.Disk().Alloc()
	}
	for op := 0; op < 3; op++ {
		for _, id := range ids[op : op+30] {
			p.Read(id)
		}
		p.Update(ids[op])[0] = 1
		p.Overwrite(ids[op+31], 64)
		p.Flush()
		p.Update(ids[op+1])[0] = 2
		p.Drop(ids[op+2])
		p.Read(ids[op+2])
		p.BeginOp()
		for id, f := range p.frames {
			if f.data != nil || f.dirty {
				t.Fatalf("operation %d: frame %d still set after BeginOp", op, id)
			}
		}
		if len(p.touched) != 0 || len(p.dirtied) != 0 {
			t.Fatalf("operation %d: %d touched and %d dirtied ids listed after BeginOp", op, len(p.touched), len(p.dirtied))
		}
	}
}

// TestFlushWritesInFirstDirtiedOrder: write-back order is the order the
// operation first dirtied its pages in, not an order that varies from run
// to run; a page dropped in between is skipped, and one dirtied again
// keeps its first position.
func TestFlushWritesInFirstDirtiedOrder(t *testing.T) {
	d := NewDisk(64)
	ids := make([]PageID, 16)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	w := pagerOn(d)
	w.OpenScope(true)
	w.BeginOp()
	order := []PageID{ids[9], ids[2], ids[14], ids[0], ids[7]}
	for _, id := range ids {
		w.Read(id)
	}
	for _, id := range order {
		w.Update(id)[0] = 1
	}
	w.Update(ids[2])[1] = 1
	w.Drop(ids[14])
	w.Flush()
	var got []PageID
	for _, pg := range d.mvcc.epochPages {
		for _, id := range ids {
			if d.page(id) == pg {
				got = append(got, id)
			}
		}
	}
	if want := []PageID{ids[9], ids[2], ids[0], ids[7]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Flush staged pages %v, want first-dirtied order %v", got, want)
	}
	w.CloseScope(1)
}

// TestColdReadAllocatesOnlyItsFrame: a cold Read resolves the page to an
// existing image and records it in a slot of the frame array — nothing is
// allocated or copied, with or without a snapshot.
func TestColdReadAllocatesOnlyItsFrame(t *testing.T) {
	const pageSize = 4000
	for _, mode := range []string{"live", "snapshot"} {
		p, _ := newTestPager(pageSize)
		d := p.Disk()
		id := d.Alloc()
		d.WriteRaw(id, []byte{7})
		if mode == "snapshot" {
			epochWrite(d, id, 8, 1)
			p.OpenScope(false)
			defer p.CloseScope(0)
		}
		p.BeginOp()
		p.Read(id)
		if n := testing.AllocsPerRun(200, func() { p.BeginOp(); p.Read(id) }); n != 0 {
			t.Errorf("%s: cold Read makes %v allocations, want 0", mode, n)
		}
	}
}

// TestBeginEpochRefusesASecondWriter: the disk has one update epoch, so a
// second pager's OpenScope(true) while the first's is open panics instead
// of sharing it; once the first publishes or abandons, the second opens.
func TestBeginEpochRefusesASecondWriter(t *testing.T) {
	for _, end := range []string{"publish", "abandon"} {
		t.Run(end, func(t *testing.T) {
			d := NewDisk(64)
			id := d.Alloc()
			first, second := pagerOn(d), pagerOn(d)
			first.OpenScope(true)
			first.BeginOp()
			first.Update(id)[0] = 1
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("a second writer opened the update epoch")
					}
				}()
				second.OpenScope(true)
			}()
			if !d.UpdateInFlight() {
				t.Fatal("the refused writer closed the first writer's epoch")
			}
			if end == "publish" {
				first.CloseScope(1)
			} else {
				first.AbortScope()
			}
			second.OpenScope(true)
			second.BeginOp()
			second.Update(id)[0] = 2
			second.CloseScope(d.CommitStamp() + 1)
			r := pagerOn(d)
			r.OpenScope(false)
			defer r.CloseScope(0)
			r.BeginOp()
			if got := r.Read(id)[0]; got != 2 {
				t.Fatalf("the second writer's update reads %d, want 2", got)
			}
		})
	}
}
