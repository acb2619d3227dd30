// Package storage provides the simulated disk substrate: fixed-size pages,
// an operation-scoped pager that meters page I/O, and a key-clustered
// file, OrderedFile.
//
// Cost fidelity follows the paper's model: every *distinct* page touched by
// one logical operation costs one C2 read (plus one C2 write if dirtied);
// repeated touches within the operation are free, and nothing is retained
// across operations (the model assumes no buffer-pool hits between
// operations). Call Pager.BeginOp at each operation boundary.
//
// Storage is copy-on-write and every disk is versioned (mvcc.go). A page
// is an atomically swapped pointer to an immutable image: once a byte
// slice has been linked into a page (by WriteRaw, by a pager's Flush, by
// Publish) nobody writes it while anybody can read it. Pager.Read
// therefore hands out the image itself — no buffer, no copy, no latch —
// valid until the next BeginOp, and no longer than the reader's snapshot
// stays open or the writer's epoch stays unpublished (version GC then
// reclaims what the horizon has passed: docs/MVCC.md). The only writable
// bytes are a pager's own dirty frames: Update and Overwrite give the
// operation a private buffer (copied from the image on first dirty), and
// Flush gives that buffer away to the disk, after which it is an image
// like any other.
//
// Every metered operation runs in one of two modes, opened and closed by
// Pager.OpenScope / CloseScope: a reader at a snapshot of the newest
// commit, or the one writer inside the update epoch. Outside a scope a
// pager reads the newest state; that is bulk load before the disk's
// first scope, and uncharged oracle reads after it.
//
// Concurrency: a Disk is safe for concurrent use by many Pagers. Reading
// a page is two atomic loads; mu serializes only allocation. A Pager is
// single-session state (its frame table is the per-operation
// distinct-page accounting) and must be confined to one goroutine;
// concurrent sessions each own a Pager over the shared Disk.
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbproc/internal/metric"
	"dbproc/internal/obs"
)

// PageID names one page on the simulated disk.
type PageID int32

// NilPage is the invalid page id.
const NilPage PageID = -1

// pageChunkLen is the number of page slots per chunk of the page table.
// Slots never move, so growing the table copies chunk pointers only.
const pageChunkLen = 256

// page is one slot of the page table: the newest image (the head of the
// version list, mvcc.go) plus the open epoch's staged write.
type page struct {
	head atomic.Pointer[pageVer]
	// pending and queued belong to the MVCC layer: the epoch writer's
	// unpublished image, and whether the page awaits version pruning
	// (guarded by mvccState.mu).
	pending []byte
	queued  bool
}

// Disk is a volume of fixed-size pages held in memory. All metered access
// goes through a Pager; the Disk's own read/write methods are raw
// (uncharged) and intended for bulk loading and for the pager itself.
type Disk struct {
	pageSize int
	// zero is the all-zero image every allocated page starts from; like
	// any image it is shared and never written.
	zero *pageVer

	// mu serializes allocation: growing the page table, the free list and
	// the directory registry. Lookups take no lock — numPages is stored
	// after the chunk slice that covers it.
	mu       sync.Mutex
	chunks   atomic.Pointer[[]*[pageChunkLen]page]
	numPages atomic.Int32
	free     []PageID

	// dirs holds the registered in-memory directory version handles
	// (guarded by mu). frozen is set once the disk's first snapshot or
	// epoch has published every versioned directory at stamp 0 (freeze).
	dirs   []*DirVersions
	frozen atomic.Bool
	mvcc   mvccState

	// snapReadHook, when set by a test, runs inside a snapshot read
	// between loading the page's newest image and walking back to the
	// version the snapshot may see.
	snapReadHook func()
	// reclaimHook sees each buffer GCVersions reclaims, as it is taken.
	reclaimHook func([]byte)
}

// NewDisk creates an empty disk with the given page size in bytes.
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	d := &Disk{pageSize: pageSize, zero: &pageVer{val: make([]byte, pageSize)}}
	d.chunks.Store(new([]*[pageChunkLen]page))
	d.mvcc.active = make(map[uint64]int)
	return d
}

// PageSize returns the size of every page in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages (including freed ones,
// which remain reserved until reused).
func (d *Disk) NumPages() int { return int(d.numPages.Load()) }

// Alloc reserves a zeroed page and returns its id. Allocation itself is
// not a charged I/O; the first write to the page is.
func (d *Disk) Alloc() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		d.page(id).head.Store(d.zero)
		return id
	}
	n := int(d.numPages.Load())
	chunks := *d.chunks.Load()
	if n == len(chunks)*pageChunkLen {
		c := new([pageChunkLen]page)
		for i := range c {
			c[i].head.Store(d.zero)
		}
		grown := append(chunks[:len(chunks):len(chunks)], c)
		d.chunks.Store(&grown)
	}
	d.numPages.Store(int32(n + 1))
	return PageID(n)
}

// Free returns a page to the allocator. Its current image stays readable
// by whoever already resolved it; the id is zeroed again when reused.
func (d *Disk) Free(id PageID) {
	d.page(id) // range check
	d.mu.Lock()
	d.free = append(d.free, id)
	d.mu.Unlock()
}

// page returns the slot of an allocated page, panicking on an id out of
// range.
func (d *Disk) page(id PageID) *page {
	if n := d.numPages.Load(); id < 0 || int32(id) >= n {
		panic(fmt.Sprintf("storage: page %d out of range [0,%d)", id, n))
	}
	return &(*d.chunks.Load())[id/pageChunkLen][id%pageChunkLen]
}

// ReadRaw copies the page's newest image into a fresh slice without
// charging any cost. Use only for bulk setup and debugging.
func (d *Disk) ReadRaw(id PageID) []byte {
	return append([]byte(nil), d.page(id).head.Load().val...)
}

// WriteRaw replaces the page's contents without charging any cost. Use
// only for bulk setup. The data must be at most one page; it is copied.
func (d *Disk) WriteRaw(id PageID, data []byte) {
	if len(data) > d.pageSize {
		panic(fmt.Sprintf("storage: write of %d bytes exceeds page size %d", len(data), d.pageSize))
	}
	img := make([]byte, d.pageSize)
	copy(img, data)
	d.page(id).setLive(img)
}

// Pager provides metered, operation-scoped access to a Disk. Within one
// operation (delimited by BeginOp calls) the first read of each page
// charges one C2 page read; dirtying a page charges one C2 page write when
// the operation's frames are flushed. Nothing survives an operation
// boundary, matching the model's assumption of no cross-operation
// buffering. Each metered operation also runs in one of the disk's two
// version modes, opened by OpenScope and closed by CloseScope: a reader at
// a snapshot, or the update epoch's writer.
//
// The frame table is an array indexed by PageID (ids are dense: an int32
// counter with a reused free list), so a warm read is an index and a cold
// read allocates nothing. Two lists make the operation boundary cost what
// the operation touched, not what the disk holds: touched names every
// slot in use, and BeginOp zeroes exactly those; dirtied names every slot
// that was ever dirty, in first-dirtied order, and Flush walks it, so
// write-back order is deterministic. No-pinning rule: outside an
// operation no slot references a page image. A slot left set would keep
// a superseded image reachable for as long as the session lives, which
// is what version GC exists to prevent.
//
// A Pager is not safe for concurrent use: it is one session's execution
// handle, coupling the shared Disk to that session's private Meter and
// per-operation frame table. The concurrent engine creates one per
// session; the sequential simulator owns exactly one.
type Pager struct {
	disk     *Disk
	meter    *metric.Meter
	charging bool
	session  int
	opToken  int
	frames   []frame
	touched  []PageID
	dirtied  []PageID
	// The open scope (OpenScope): snap/hasSnap route reads through the
	// version chains at the reader's stamp; epoch routes this pager's reads
	// and writes through the update epoch's pending buffers. At most one
	// of the two is set.
	snap    uint64
	hasSnap bool
	epoch   bool
	// wall, when non-nil, accumulates wall-clock I/O and recompute time
	// for the critical-path decomposition (docs/DIAGNOSIS.md). It lives
	// entirely in the wall-clock domain: enabling it never touches the
	// meter, so simulated costs stay byte-identical.
	wall *WallStats
	// tracer, when non-nil, records the spans of every layer an operation
	// runs through on this pager (sim, proc, avm, rete).
	tracer *obs.Tracer
}

// WallStats accumulates wall-clock execution segments for one pager's
// current operation. IONs counts time spent in Disk reads and writes;
// RecomputeNs counts time inside cache-miss recompute scopes (see
// BeginRecompute) excluding the I/O accrued within them, so the two
// segments are disjoint and sum to at most the operation's service time.
type WallStats struct {
	IONs        int64
	RecomputeNs int64

	recomputeDepth int
	recomputeStart time.Time
	ioAtStart      int64
}

// Reset zeroes the accumulated segments at an operation boundary.
func (w *WallStats) Reset() {
	w.IONs, w.RecomputeNs, w.recomputeDepth = 0, 0, 0
}

type frame struct {
	// data is the operation's private buffer while dirty, and the shared
	// immutable image the page resolved to (or the buffer Flush gave away)
	// while clean; nil marks a slot the operation has not touched.
	data  []byte
	dirty bool
	// comp is the meter component that dirtied the frame; the write is
	// charged at flush time, after the dirtier's attribution scope has
	// ended, so it must be remembered here.
	comp metric.Component
}

// NewPager creates a pager over disk charging I/O to meter. Charging
// starts enabled; the session tag starts at -1 (no session).
func NewPager(disk *Disk, meter *metric.Meter) *Pager {
	return &Pager{disk: disk, meter: meter, charging: true, session: -1, opToken: -1}
}

// SetOpToken tags the pager with the workload-order index of the
// operation it is currently executing; -1 means no operation. The
// cache-efficacy ledger reads it to name the op that computed, hit, or
// invalidated an entry.
func (p *Pager) SetOpToken(idx int) { p.opToken = idx }

// OpToken returns the current operation's workload-order index, -1 if
// untagged.
func (p *Pager) OpToken() int { return p.opToken }

// EnableWallStats attaches (or returns the existing) wall-clock segment
// accumulator. Off by default; when off, the pager's hot paths cost one
// nil check extra.
func (p *Pager) EnableWallStats() *WallStats {
	if p.wall == nil {
		p.wall = &WallStats{}
	}
	return p.wall
}

// Wall returns the attached wall-clock accumulator, nil when disabled.
func (p *Pager) Wall() *WallStats { return p.wall }

// SetTracer binds t to the pager's meter and records the pager's
// operations' spans on it; nil (the default) disables tracing.
func (p *Pager) SetTracer(t *obs.Tracer) {
	t.Bind(p.meter)
	p.tracer = t
}

// Tracer returns the attached tracer, nil when tracing is off (every
// obs.Tracer method is nil-safe).
func (p *Pager) Tracer() *obs.Tracer { return p.tracer }

// BeginRecompute opens a cache-miss recompute scope: until the matching
// EndRecompute, elapsed wall time (minus I/O, which stays in the I/O
// segment) accrues to RecomputeNs. Scopes nest; only the outermost pair
// measures. Nil-safe no-op when wall stats are disabled.
func (p *Pager) BeginRecompute() {
	w := p.wall
	if w == nil {
		return
	}
	w.recomputeDepth++
	if w.recomputeDepth == 1 {
		w.recomputeStart = time.Now()
		w.ioAtStart = w.IONs
	}
}

// EndRecompute closes the scope opened by BeginRecompute.
func (p *Pager) EndRecompute() {
	w := p.wall
	if w == nil {
		return
	}
	w.recomputeDepth--
	if w.recomputeDepth == 0 {
		elapsed := time.Since(w.recomputeStart).Nanoseconds()
		if d := elapsed - (w.IONs - w.ioAtStart); d > 0 {
			w.RecomputeNs += d
		}
	}
}

// OpenScope opens one operation in one of the disk's two modes. With
// update set the pager becomes the update epoch's writer: its writes are
// staged on their pages for Publish and its reads observe them; the
// caller must hold whatever makes it the only writer (the engine's
// exclusive base-relation locks, or a single-session front end). Without
// it the pager becomes a reader at a snapshot of the newest commit, which
// it registers (so version GC keeps what the snapshot reads) and returns;
// reads of versioned pages and directories then resolve at that stamp,
// and writes go to live pages (only unversioned cache entry pages are
// written under a snapshot). Opening a scope inside another panics.
func (p *Pager) OpenScope(update bool) (stamp uint64) {
	if p.epoch || p.hasSnap {
		panic("storage: OpenScope inside an open scope")
	}
	if update {
		p.disk.BeginEpoch()
		p.epoch = true
		return 0
	}
	p.snap, p.hasSnap = p.disk.acquireSnapshot(), true
	return p.snap
}

// CloseScope closes the scope OpenScope opened: a reader releases its
// snapshot (stamp is ignored); the writer flushes its frames and
// publishes the epoch at stamp, which must exceed every stamp published
// before. Callers close the scope on every path out of the operation,
// panics included: an epoch left open would hold UpdateInFlight true and
// keep every later query-time cache install from being clean.
func (p *Pager) CloseScope(stamp uint64) {
	switch {
	case p.epoch:
		p.Flush()
		p.disk.Publish(stamp)
		p.epoch = false
	case p.hasSnap:
		p.hasSnap = false
		p.disk.releaseSnapshot(p.snap)
	default:
		panic("storage: CloseScope outside a scope")
	}
}

// Snapshot returns the reader's stamp and whether the pager is a reader.
// Access methods use it to pick the directory copy to walk.
func (p *Pager) Snapshot() (uint64, bool) { return p.snap, p.hasSnap }

// ReadStamp returns the reader's stamp and panics on a pager that is not
// reading at a snapshot: a cache decision made without one would judge
// visibility at stamp 0 and serve a stale result without any error.
func (p *Pager) ReadStamp() uint64 {
	if !p.hasSnap {
		panic("storage: cache access outside a read scope")
	}
	return p.snap
}

// AbortScope closes the update epoch unpublished: the frames are dropped
// unflushed and the disk abandons the epoch (Disk.Abandon).
func (p *Pager) AbortScope() {
	if !p.epoch {
		panic("storage: AbortScope outside an update epoch")
	}
	p.dirtied = p.dirtied[:0] // nothing to flush: BeginOp only clears
	p.BeginOp()
	p.disk.Abandon()
	p.epoch = false
}

// AllocPage reserves a zeroed page, the twin of FreePage. Inside an update
// epoch the disk records it, for Abandon to free.
func (p *Pager) AllocPage() PageID {
	id := p.disk.Alloc()
	if p.epoch {
		p.disk.mvcc.epochAllocs = append(p.disk.mvcc.epochAllocs, id)
	}
	return id
}

// FreePage returns a page to the allocator. Inside an update epoch the
// free is deferred until the GC horizon passes the epoch's commit stamp,
// because older directory snapshots may still name the page.
func (p *Pager) FreePage(id PageID) {
	if p.epoch {
		p.disk.freeEpoch(id)
		return
	}
	p.disk.Free(id)
}

// image resolves the page to the immutable image this pager's version
// mode may see: the epoch writer's own staged write, the newest version at
// or below the snapshot stamp, or else the newest image.
func (p *Pager) image(id PageID) []byte {
	pg := p.disk.page(id)
	if p.epoch {
		if pg.pending != nil {
			return pg.pending
		}
	} else if p.hasSnap {
		return p.disk.imageAt(pg, id, p.snap)
	}
	return pg.head.Load().val
}

// handOver gives a flushed frame's buffer to the disk, which owns it from
// here on: staged for Publish inside an epoch, the page's newest image
// otherwise.
func (p *Pager) handOver(id PageID, buf []byte) {
	pg := p.disk.page(id)
	if p.epoch {
		p.disk.stageEpoch(pg, buf)
		return
	}
	pg.setLive(buf)
}

// Disk returns the underlying disk.
func (p *Pager) Disk() *Disk { return p.disk }

// Meter returns the meter I/O is charged to.
func (p *Pager) Meter() *metric.Meter { return p.meter }

// SetSession tags the pager with the owning session id (observers use it
// to attribute events); -1 means no session.
func (p *Pager) SetSession(s int) { p.session = s }

// Session returns the owning session id, -1 if untagged.
func (p *Pager) Session() int { return p.session }

// SetCharging enables or disables cost accounting. Bulk loading and base
// relation updates (whose cost is common to every strategy and excluded by
// the paper's model) run with charging disabled. It returns the previous
// setting.
func (p *Pager) SetCharging(on bool) bool {
	prev := p.charging
	p.charging = on
	return prev
}

// Charging reports whether cost accounting is enabled.
func (p *Pager) Charging() bool { return p.charging }

// BeginOp flushes all dirty frames (charging their writes) and forgets
// every cached frame, starting a fresh operation scope. Zeroing the
// touched slots is what keeps the table from pinning dead images.
func (p *Pager) BeginOp() {
	p.Flush()
	for _, id := range p.touched {
		p.frames[id] = frame{}
	}
	p.touched = p.touched[:0]
}

// Flush hands every dirty frame's buffer to the disk in first-dirtied
// order, charging one page write each — attributed to the component that
// dirtied the frame — and marks them clean. Clean frames stay cached for
// the rest of the operation; a flushed frame now aliases the image it
// became, so dirtying it again copies first. A listed id whose slot is no
// longer dirty was dropped since.
func (p *Pager) Flush() {
	for _, id := range p.dirtied {
		f := &p.frames[id]
		if !f.dirty {
			continue
		}
		if p.wall != nil {
			t0 := time.Now()
			p.handOver(id, f.data)
			p.wall.IONs += time.Since(t0).Nanoseconds()
		} else {
			p.handOver(id, f.data)
		}
		if p.charging {
			prev := p.meter.SetComponent(f.comp)
			p.meter.PageWrite(1)
			p.meter.SetComponent(prev)
		}
		f.dirty = false
	}
	p.dirtied = p.dirtied[:0]
}

// Read returns the page contents for reading. The first access in this
// operation charges one page read. The returned slice is the page's
// immutable image (or, once this operation has dirtied the page, its
// private buffer): never write through it — use Update for that — and do
// not retain it across BeginOp or past the pager's scope.
func (p *Pager) Read(id PageID) []byte {
	return p.fetch(id).data
}

// Update returns the page contents for read-modify-write. It charges like
// Read on first access and additionally marks the frame dirty, so the
// operation's flush charges one page write, attributed to the component
// that first dirtied the frame. The first Update of a page in an operation
// copies its image into a private buffer: slices returned by earlier Reads
// keep the old bytes.
func (p *Pager) Update(id PageID) []byte {
	f := p.fetch(id)
	if !f.dirty {
		buf := p.disk.newImage(false)
		copy(buf, f.data)
		p.dirty(id, f, buf)
	}
	return f.data
}

// Overwrite returns a zeroed buffer for the page, marking it dirty without
// charging a read: use it when the previous contents are irrelevant (a
// freshly allocated or fully rewritten page).
func (p *Pager) Overwrite(id PageID) []byte {
	f := p.slot(id)
	if f.data == nil {
		p.touched = append(p.touched, id)
	}
	if f.dirty {
		clear(f.data)
	} else {
		p.dirty(id, f, p.disk.newImage(true))
	}
	return f.data
}

// dirty gives a clean frame its private buffer.
func (p *Pager) dirty(id PageID, f *frame, buf []byte) {
	f.data, f.dirty, f.comp = buf, true, p.meter.Component()
	p.dirtied = append(p.dirtied, id)
}

// Drop discards the page's frame without flushing it, even if dirty. Call
// it before freeing a page so a stale dirty frame is not written back (and
// charged) later.
func (p *Pager) Drop(id PageID) {
	if int(id) < len(p.frames) {
		p.frames[id] = frame{}
	}
}

// slot returns the page's frame-table slot, growing the table to the
// disk's size when the id lies past it and panicking on an id the disk
// never allocated.
func (p *Pager) slot(id PageID) *frame {
	if uint(id) >= uint(len(p.frames)) {
		p.disk.page(id) // range check
		n := p.disk.NumPages()
		p.frames = slices.Grow(p.frames, n-len(p.frames))[:n]
	}
	return &p.frames[id]
}

// fetch returns the page's frame, resolving its image and charging one
// page read on the operation's first touch.
func (p *Pager) fetch(id PageID) *frame {
	f := p.slot(id)
	if f.data != nil {
		return f
	}
	if p.wall != nil {
		t0 := time.Now()
		f.data = p.image(id)
		p.wall.IONs += time.Since(t0).Nanoseconds()
	} else {
		f.data = p.image(id)
	}
	p.touched = append(p.touched, id)
	if p.charging {
		p.meter.PageRead(1)
	}
	return f
}
