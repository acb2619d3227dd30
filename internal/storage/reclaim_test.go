package storage

import (
	"testing"
	"unsafe"
)

// recorded turns the reclaim hook into a recorder: every buffer
// GCVersions takes, by the address of its first byte.
func recorded(d *Disk) map[*byte]bool {
	taken := map[*byte]bool{}
	d.reclaimHook = func(buf []byte) { taken[unsafe.SliceData(buf)] = true }
	return taken
}

// TestReclaimTakesWhatPruneCuts: the one thing that is reclaimed — a
// version strictly older than the newest one at or below the horizon —
// is taken exactly when the horizon passes it, poisoned at that moment,
// and is the buffer the next Update works in.
func TestReclaimTakesWhatPruneCuts(t *testing.T) {
	d := NewDisk(64)
	id := d.Alloc()
	d.OnReclaim(func(buf []byte) { buf[0], buf[63] = 0xDB, 0xDB })
	epochWrite(d, id, 1, 1) // over the zero image: nothing to take
	d.GCVersions()
	v1 := d.page(id).head.Load().val

	r := pagerOn(d)
	r.OpenScope(false) // pins stamp 1
	epochWrite(d, id, 2, 2)
	d.GCVersions()
	r.BeginOp()
	if got := r.Read(id); unsafe.SliceData(got) != unsafe.SliceData(v1) || got[0] != 1 {
		t.Fatalf("the pinned snapshot reads %x, want the untouched stamp-1 image", got[:2])
	}
	if reclaimed, _, pooled, lag := d.ReclaimStats(); reclaimed != 0 || pooled != 0 || lag != 1 {
		t.Fatalf("with stamp 1 pinned: reclaimed %d pooled %d lag %d, want 0 0 1", reclaimed, pooled, lag)
	}

	r.CloseScope(0)
	d.GCVersions()
	if reclaimed, _, pooled, lag := d.ReclaimStats(); reclaimed != 1 || pooled != 1 || lag != 0 {
		t.Fatalf("after the release: reclaimed %d pooled %d lag %d, want 1 1 0", reclaimed, pooled, lag)
	}
	if v1[0] != 0xDB || v1[63] != 0xDB {
		t.Fatal("the reclaimed image was not poisoned when GC took it")
	}
	w := pagerOn(d)
	w.BeginOp()
	if buf := w.Update(id); unsafe.SliceData(buf) != unsafe.SliceData(v1) || buf[0] != 2 || buf[63] != 0 {
		t.Fatalf("Update did not work in the reclaimed buffer, or kept its old bytes: %x", buf[:2])
	}
	if _, reused, pooled, _ := d.ReclaimStats(); reused != 1 || pooled != 0 {
		t.Fatalf("reused %d pooled %d after one Update, want 1 0", reused, pooled)
	}
	other := d.Alloc()
	d.mvcc.pool = append(d.mvcc.pool, make([]byte, 64))
	d.mvcc.pool[0][5] = 0xDB
	if buf := w.Overwrite(other); buf[5] != 0 {
		t.Fatal("Overwrite handed out a reused buffer without clearing it")
	}
}

// TestReclaimSkipsSharedImages: what may have readers GC knows nothing
// about never enters the pool — the zero image every fresh page shares,
// an image setLive replaced (written outside an epoch: bulk load, a C&I
// refresh at query time), the chain a freed page leaves behind when Alloc
// re-zeroes it, and a staged image a second flush inside the epoch
// replaced. Nor do the version at the horizon or a head.
func TestReclaimSkipsSharedImages(t *testing.T) {
	d := NewDisk(64)
	a, b, c, e := d.Alloc(), d.Alloc(), d.Alloc(), d.Alloc()
	d.WriteRaw(b, []byte{1})
	d.WriteRaw(c, []byte{1})
	taken := recorded(d)
	addr := func(id PageID) *byte { return unsafe.SliceData(d.page(id).head.Load().val) }

	// a: the zero image is cut from under the first epoch write.
	epochWrite(d, a, 1, 1)
	d.GCVersions()
	if len(taken) != 0 || d.page(a).head.Load().prev.Load() != nil {
		t.Fatalf("cutting the zero image reclaimed %d buffers (or left it linked)", len(taken))
	}

	// b: an epoch version, then setLive over the whole chain (a query-time
	// refresh of an unversioned cache page). Both images drop unreclaimed.
	epochWrite(d, b, 2, 2)
	bulk, epochImg := d.page(b).head.Load().prev.Load().val, addr(b)
	q := pagerOn(d)
	q.BeginOp()
	q.Overwrite(b)[0] = 3
	q.Flush()
	live := addr(b)
	d.GCVersions()
	if taken[unsafe.SliceData(bulk)] || taken[epochImg] || taken[live] {
		t.Fatal("an image replaced by setLive (or the live image) was reclaimed")
	}

	// c: freed in an epoch, reused by Alloc once the horizon passes; the
	// chain it held is dropped, not reclaimed, and the fresh zero head is
	// not reclaimed when the next write covers it.
	epochWrite(d, c, 4, 3)
	old := addr(c)
	w := pagerOn(d)
	w.OpenScope(true)
	w.BeginOp()
	w.FreePage(c)
	w.CloseScope(4)
	if d.GCVersions() != 1 || d.Alloc() != c {
		t.Fatal("the freed page did not come back from the allocator")
	}
	// (The bulk-loaded image under stamp 3 was fair game: an epoch version
	// covered it and the horizon passed that version.)
	if len(taken) != 1 || taken[old] {
		t.Fatalf("GC past the free reclaimed %d buffers, want only the covered bulk image", len(taken))
	}
	clear(taken)
	epochWrite(d, c, 5, 5)
	d.GCVersions()
	if taken[old] || taken[unsafe.SliceData(d.zero.val)] || len(taken) != 0 {
		t.Fatalf("a freed page's chain or the zero image was reclaimed (%d buffers)", len(taken))
	}

	// e: two flushes inside one epoch; the first staged image is dropped.
	w.OpenScope(true)
	w.BeginOp()
	w.Update(e)[0] = 6
	w.Flush()
	first := unsafe.SliceData(d.page(e).pending)
	w.Update(e)[0] = 7
	w.CloseScope(6)
	d.GCVersions()
	if taken[first] || len(taken) != 0 {
		t.Fatalf("a staged image replaced inside the epoch was reclaimed (%d buffers)", len(taken))
	}

	// The version at the horizon and every head stay: with stamp 7 pinned,
	// two more writes of e let GC take stamp 6 alone; once the pin goes
	// stamps 7 and 8 follow — never stamp 9, the head.
	epochWrite(d, e, 8, 7)
	at := addr(e)
	_, release := d.AcquireSnapshot()
	epochWrite(d, e, 9, 8)
	epochWrite(d, e, 10, 9)
	d.GCVersions()
	if len(taken) != 1 { // stamp 6, strictly below the version at the horizon
		t.Fatalf("with stamp 7 pinned GC reclaimed %d buffers, want 1", len(taken))
	}
	if taken[at] {
		t.Fatal("the version at the horizon was reclaimed")
	}
	release()
	d.GCVersions()
	if len(taken) != 3 || !taken[at] || taken[addr(e)] {
		t.Fatalf("after the release GC holds %d buffers (head taken: %v), want 3 and the head kept", len(taken), taken[addr(e)])
	}
}

// TestImagePoolBounded: a snapshot pinned across many updates holds every
// superseded image back; its release hands GC all of them at once, and the
// pool keeps its constant's worth — the rest goes to the collector.
func TestImagePoolBounded(t *testing.T) {
	d := NewDisk(64)
	ids := make([]PageID, 3*imagePoolCap)
	for i := range ids {
		ids[i] = d.Alloc()
	}
	write := func(stamp uint64) {
		w := pagerOn(d)
		w.OpenScope(true)
		w.BeginOp()
		for _, id := range ids {
			w.Update(id)[0] = byte(stamp)
		}
		w.CloseScope(stamp)
	}
	write(1)
	_, release := d.AcquireSnapshot()
	write(2)
	write(3)
	d.GCVersions()
	if _, _, pooled, lag := d.ReclaimStats(); pooled != 0 || lag != 2 {
		t.Fatalf("pinned: pool %d lag %d, want 0 2", pooled, lag)
	}
	release()
	d.GCVersions()
	reclaimed, _, pooled, _ := d.ReclaimStats()
	if reclaimed != uint64(2*len(ids)) || pooled != imagePoolCap || len(d.mvcc.pool) != imagePoolCap {
		t.Fatalf("released: reclaimed %d pool %d (len %d), want %d and %d", reclaimed, pooled, len(d.mvcc.pool), 2*len(ids), imagePoolCap)
	}
	write(4) // drains the pool, allocates the rest
	if _, reused, pooled, _ := d.ReclaimStats(); reused != imagePoolCap || pooled != 0 {
		t.Fatalf("after the next update: reused %d pool %d, want %d and 0", reused, pooled, imagePoolCap)
	}
}
