// MVCC: single-writer multi-version concurrency control for the simulated
// disk, so snapshot readers never block behind the update in flight.
//
// The engine's canonical-order 2PL already serializes updates against each
// other (every update footprint takes the base relations exclusive), so at
// most one update epoch is ever open. That single-writer shape is the
// load-bearing simplification here, as in LMDB or SQLite's WAL: versioning
// only has to mediate one mutator against many lock-free readers.
//
// Two kinds of state are versioned, both copy-on-write (docs/MVCC.md):
//
//   - Page contents. A page's images form a list, newest first, each
//     stamped with the commit sequence number that published it (0 for
//     anything written outside an epoch, which is valid at every stamp).
//     An epoch's flushed buffers are staged on their pages, invisible to
//     readers; Publish links each as its page's new head — the same slice
//     the pager filled, no copy. A snapshot reader at stamp S loads the
//     head once and walks back to the newest version with stamp <= S.
//
//   - Directory state. The in-memory directories of the access methods
//     (B-tree meta table and root, hash bucket table, ordered-file page
//     list) are persistent structures: each registers a DirVersions
//     handle with a function that freezes the live directory in time
//     proportional to what changed since the last freeze. Epoch mutations
//     mark the handle dirty, and Publish links a frozen copy as the new
//     head. Snapshot readers resolve the directory the same way they
//     resolve pages, falling back to the live directory when the structure
//     is unversioned (cache entry files mutated at query time under their
//     entry mutex).
//
// Every disk is versioned from NewDisk on. Until its first snapshot or
// epoch, writes outside an epoch are bulk load: the disk's first
// AcquireSnapshot or BeginEpoch freezes it, publishing every versioned
// directory at stamp 0. From then on a versioned directory changes only
// inside an epoch — MarkDirty outside one panics, because the change
// would never reach the published copy snapshot readers walk.
//
// Pages freed inside an epoch are deferred: they rejoin the allocator only
// once the garbage-collection horizon (the oldest registered snapshot)
// passes the freeing update's stamp, since older directory snapshots may
// still name them. GCVersions also cuts version lists below the horizon,
// visiting only the pages and directories published since it last ran.
//
// An epoch can be abandoned instead of published (Abandon).
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ver is one immutable version of a page's contents or of a directory,
// linked to the version it superseded.
type ver[T any] struct {
	stamp uint64
	val   T
	prev  atomic.Pointer[ver[T]]
}

type (
	pageVer = ver[[]byte]
	dirVer  = ver[any]
)

// visible returns the newest version at or below snap, starting at v.
func (v *ver[T]) visible(snap uint64) *ver[T] {
	for v != nil && v.stamp > snap {
		v = v.prev.Load()
	}
	return v
}

// prune cuts the list after the newest version at or below horizon — no
// registered snapshot can reach anything older — and returns what it cut
// off, and whether versions above the horizon remain for a later call.
func (v *ver[T]) prune(horizon uint64) (cut *ver[T], more bool) {
	last := v.visible(horizon)
	if last != nil {
		cut = last.prev.Swap(nil)
	}
	return cut, last != v
}

// setLive makes img the page's only image, valid at every stamp: the
// write path outside an epoch (bulk load, unversioned cache pages
// rewritten at query time).
func (pg *page) setLive(img []byte) {
	pg.head.Store(&pageVer{val: img})
}

// DirVersions is the version handle one in-memory directory registers with
// its Disk. The zero value is not usable; obtain handles via RegisterDir.
type DirVersions struct {
	disk      *Disk
	versioned bool
	snap      func() any
	restore   func(any)
	head      atomic.Pointer[dirVer]
	dirty     bool
	queued    bool // awaiting version pruning; guarded by mvccState.mu
}

// deferredFree is a batch of pages freed by the update that committed at
// stamp; they become reusable once the GC horizon reaches the stamp.
type deferredFree struct {
	stamp uint64
	ids   []PageID
}

// mvccState is a Disk's version bookkeeping.
type mvccState struct {
	// mu guards the snapshot registry, the deferred-free list, the pruning
	// queues and the commit stamp's publication point.
	mu          sync.Mutex
	commitStamp atomic.Uint64
	active      map[uint64]int
	epoch       atomic.Bool

	// Epoch-writer private state: pages written, allocated (through
	// Pager.AllocPage) and freed this epoch, and directories dirtied this
	// epoch. Only the session holding the update footprint touches these.
	epochPages  []*page
	epochAllocs []PageID
	epochFrees  []PageID
	dirtyDirs   []*DirVersions

	deferred []deferredFree
	// gcPages and gcDirs hold what gained a version since GCVersions last
	// cut it back to one.
	gcPages []*page
	gcDirs  []*DirVersions

	// pool holds the page buffers GCVersions cut off below the horizon, for
	// Update and Overwrite to work in (docs/MVCC.md): one LIFO stack per
	// image length, since images are sized to their owner's records and a
	// buffer is only reused by an owner of the same size. Its own mutex:
	// whoever runs GC pushes, the next epoch's writer (or a query-time
	// refresh) pops. The counters are ReclaimStats'; pooled sums the stacks.
	poolMu sync.Mutex
	pool   map[int][][]byte

	reclaimed, reused, pooled, gcLag, made atomic.Uint64
}

// imagePoolCap bounds each size's stack: a few updates' worth (one
// dirties ~75 pages).
const imagePoolCap = 256

// EnableMVCC freezes the disk now rather than at its first snapshot or
// epoch, which freeze it anyway; calling it only moves the end of bulk
// load forward.
func (d *Disk) EnableMVCC() { d.freeze() }

// freeze ends bulk load, once: every registered versioned directory is
// published at stamp 0, so snapshot readers always find a consistent
// copy, and from then on MarkDirty outside an epoch panics.
func (d *Disk) freeze() {
	if d.frozen.Load() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen.Load() {
		return
	}
	for _, dv := range d.dirs {
		if dv.versioned {
			dv.publish(0)
		}
	}
	d.frozen.Store(true)
}

// CommitStamp returns the newest published version stamp (0 before any
// update publishes).
func (d *Disk) CommitStamp() uint64 { return d.mvcc.commitStamp.Load() }

// UpdateInFlight reports whether an update epoch is currently open. The
// cache layer's optimistic install check reads it.
func (d *Disk) UpdateInFlight() bool { return d.mvcc.epoch.Load() }

// AcquireSnapshot registers a reader at the current commit stamp and
// returns the stamp plus a release function. The garbage-collection
// horizon never passes a registered snapshot. A pager's read scope
// (Pager.OpenScope) does the same without the closure.
func (d *Disk) AcquireSnapshot() (uint64, func()) {
	s := d.acquireSnapshot()
	return s, func() { d.releaseSnapshot(s) }
}

func (d *Disk) acquireSnapshot() uint64 {
	d.freeze()
	m := &d.mvcc
	m.mu.Lock()
	s := m.commitStamp.Load()
	m.active[s]++
	m.mu.Unlock()
	return s
}

func (d *Disk) releaseSnapshot(s uint64) {
	m := &d.mvcc
	m.mu.Lock()
	if m.active[s]--; m.active[s] == 0 {
		delete(m.active, s)
	}
	m.mu.Unlock()
}

// BeginEpoch opens the update epoch. The caller must guarantee a single
// writer (the engine's exclusive base-relation locks do, and procserved's
// statement gate for QUEL); a second writer panics rather than share the
// epoch.
func (d *Disk) BeginEpoch() {
	d.freeze()
	if d.mvcc.epoch.Swap(true) {
		panic("storage: BeginEpoch while another update epoch is open")
	}
}

// Publish stamps everything the open epoch wrote — staged page images,
// dirty directories, deferred frees — with the update's commit sequence
// number and makes it visible: after the commit stamp advances, snapshots
// taken at or beyond stamp see the new versions, older snapshots keep the
// old ones. Call under the engine's commit mutex, which assigns the stamp.
// The work is proportional to what the epoch touched.
func (d *Disk) Publish(stamp uint64) {
	m := &d.mvcc
	for _, dv := range m.dirtyDirs {
		dv.publish(stamp)
		dv.dirty = false
	}
	m.mu.Lock()
	for _, pg := range m.epochPages {
		v := &pageVer{stamp: stamp, val: pg.pending}
		v.prev.Store(pg.head.Load())
		pg.head.Store(v)
		pg.pending = nil
		if !pg.queued {
			pg.queued = true
			m.gcPages = append(m.gcPages, pg)
		}
	}
	for _, dv := range m.dirtyDirs {
		if !dv.queued {
			dv.queued = true
			m.gcDirs = append(m.gcDirs, dv)
		}
	}
	if len(m.epochFrees) > 0 {
		m.deferred = append(m.deferred, deferredFree{stamp: stamp, ids: m.epochFrees})
		m.epochFrees = nil
	}
	m.commitStamp.Store(stamp)
	m.mu.Unlock()
	m.endEpoch()
}

// Abandon closes the open epoch unpublished, as if it never ran: staged
// images are dropped, dirty directories restored from their published
// heads, the epoch's allocations freed and its deferred frees forgotten.
func (d *Disk) Abandon() {
	m := &d.mvcc
	for _, pg := range m.epochPages {
		pg.pending = nil
	}
	for _, dv := range m.dirtyDirs {
		dv.restore(dv.head.Load().val)
		dv.dirty = false
	}
	d.mu.Lock()
	d.free = append(d.free, m.epochAllocs...)
	d.mu.Unlock()
	m.endEpoch()
}

// endEpoch clears the writer's epoch state and closes the epoch.
func (m *mvccState) endEpoch() {
	m.epochPages, m.epochAllocs, m.epochFrees, m.dirtyDirs = m.epochPages[:0], m.epochAllocs[:0], m.epochFrees[:0], m.dirtyDirs[:0]
	m.epoch.Store(false)
}

// GCVersions cuts version lists and reclaims deferred frees below the
// horizon — the oldest registered snapshot (or the commit stamp when no
// reader is active). It visits only what was published since it last
// ran, keeping queued whatever the horizon has not passed yet, and
// returns the number of pages returned to the allocator. Safe to call
// concurrently with readers and with an open epoch; the engine wraps
// calls in the "mvcc:gc" lock so residual waits are attributable (see
// procstat).
func (d *Disk) GCVersions() int {
	m := &d.mvcc
	m.mu.Lock()
	horizon := m.commitStamp.Load()
	for s := range m.active {
		if s < horizon {
			horizon = s
		}
	}
	var ready []PageID
	m.deferred = slices.DeleteFunc(m.deferred, func(df deferredFree) bool {
		if df.stamp > horizon {
			return false
		}
		ready = append(ready, df.ids...)
		return true
	})
	m.gcLag.Store(m.commitStamp.Load() - horizon)
	m.poolMu.Lock()
	m.gcPages = slices.DeleteFunc(m.gcPages, func(pg *page) bool {
		var cut *pageVer
		for cut, pg.queued = pg.head.Load().prune(horizon); cut != nil; cut = cut.prev.Load() {
			if cut == d.zero {
				continue // shared by every fresh page
			}
			if d.reclaimHook != nil {
				d.reclaimHook(cut.val)
			}
			m.reclaimed.Add(1)
			if n := len(cut.val); len(m.pool[n]) < imagePoolCap {
				m.pool[n] = append(m.pool[n], cut.val)
				m.pooled.Add(1)
			}
		}
		return !pg.queued
	})
	m.poolMu.Unlock()
	m.gcDirs = slices.DeleteFunc(m.gcDirs, func(dv *DirVersions) bool {
		_, dv.queued = dv.head.Load().prune(horizon)
		return !dv.queued
	})
	m.mu.Unlock()

	if len(ready) > 0 {
		d.mu.Lock()
		d.free = append(d.free, ready...)
		d.mu.Unlock()
	}
	return len(ready)
}

// newImage returns an n-byte page buffer: the most recently reclaimed one
// of that length, else a fresh one. Its contents are arbitrary unless zero
// is set; a fresh buffer is zero already.
func (d *Disk) newImage(n int, zero bool) (buf []byte) {
	m := &d.mvcc
	m.poolMu.Lock()
	if stack := m.pool[n]; len(stack) > 0 {
		buf, m.pool[n] = stack[len(stack)-1], stack[:len(stack)-1]
		m.pooled.Add(^uint64(0))
		m.reused.Add(1)
	}
	m.poolMu.Unlock()
	if buf == nil {
		m.made.Add(1)
		return make([]byte, n)
	}
	if zero {
		clear(buf)
	}
	return buf
}

// ImagesMade reports the page buffers newImage allocated because no
// reclaimed buffer of the length was pooled: the images an update could
// not take from the updates before it.
func (d *Disk) ImagesMade() uint64 { return d.mvcc.made.Load() }

// OnReclaim is a test aid (cowtest.Poison): GCVersions shows fn every buffer
// the moment it reclaims it, under its locks. Set before concurrent access.
func (d *Disk) OnReclaim(fn func([]byte)) { d.reclaimHook = fn }

// ReclaimStats reports images GCVersions reclaimed, buffers reused, the
// pool's size, and commit stamp − horizon at the last GC.
func (d *Disk) ReclaimStats() (reclaimed, reused, pooled, horizonLag uint64) {
	return d.mvcc.reclaimed.Load(), d.mvcc.reused.Load(), d.mvcc.pooled.Load(), d.mvcc.gcLag.Load()
}

// RegisterDir registers an in-memory directory with the disk and returns
// its version handle. snap must return an immutable copy of the live
// directory; the copy may share whatever the live directory will copy
// before writing again (Table chunks, OrderedFile page entries); restore
// resets the live directory to such a copy on the same terms. Structures
// register at construction; cache entry files that are rewritten at query
// time call Unversion on the handle instead.
func (d *Disk) RegisterDir(snap func() any, restore func(any)) *DirVersions {
	dv := &DirVersions{disk: d, versioned: true, snap: snap, restore: restore}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dirs = append(d.dirs, dv)
	if d.frozen.Load() {
		dv.publish(d.CommitStamp())
	}
	return dv
}

// Unversion excludes the directory from snapshotting: readers always see
// the live directory. Correct only for structures whose mutations are
// serialized against their readers by other means (the cache layer's
// per-entry mutexes).
func (dv *DirVersions) Unversion() {
	dv.versioned = false
	dv.head.Store(nil)
}

// MarkDirty records that the live directory was mutated inside the open
// update epoch, scheduling a fresh copy at Publish. Before the disk's
// freeze a mutation outside an epoch is bulk load and needs nothing;
// after it, such a mutation panics: snapshot readers would keep walking
// the copy published before it. Unversioned directories are exempt.
func (dv *DirVersions) MarkDirty() {
	if !dv.versioned {
		return
	}
	m := &dv.disk.mvcc
	if !m.epoch.Load() {
		if dv.disk.frozen.Load() {
			panic("storage: versioned directory mutated outside an update epoch")
		}
		return
	}
	if !dv.dirty {
		dv.dirty = true
		m.dirtyDirs = append(m.dirtyDirs, dv)
	}
}

// Lookup returns the newest published directory copy with stamp <= snap,
// or nil when the structure is unversioned (read the live directory).
func (dv *DirVersions) Lookup(snap uint64) any {
	if dv == nil || !dv.versioned {
		return nil
	}
	if v := dv.head.Load().visible(snap); v != nil {
		return v.val
	}
	return nil
}

// publish links a fresh directory copy as the new head.
func (dv *DirVersions) publish(stamp uint64) {
	v := &dirVer{stamp: stamp, val: dv.snap()}
	v.prev.Store(dv.head.Load())
	dv.head.Store(v)
}

// imageAt returns the newest image of the page with stamp <= snap. The
// head is loaded once and the walk starts from it, so a Publish that lands
// meanwhile cannot show through: whatever it links sits above the head
// already in hand.
func (d *Disk) imageAt(pg *page, id PageID, snap uint64) []byte {
	v := pg.head.Load()
	if d.snapReadHook != nil {
		d.snapReadHook()
	}
	if v = v.visible(snap); v != nil {
		return v.val
	}
	panic(fmt.Sprintf("storage: page %d has no version visible at snapshot %d", id, snap))
}

// stageEpoch stages a flushed buffer as the page's unpublished image; a
// second flush of the same page within the epoch replaces the first.
func (d *Disk) stageEpoch(pg *page, buf []byte) {
	if pg.pending == nil {
		d.mvcc.epochPages = append(d.mvcc.epochPages, pg)
	}
	pg.pending = buf
}

// freeEpoch defers a page freed inside the epoch until the GC horizon
// passes the epoch's eventual stamp.
func (d *Disk) freeEpoch(id PageID) {
	d.page(id) // range check
	d.mvcc.epochFrees = append(d.mvcc.epochFrees, id)
}
