package storage

import (
	"fmt"
	"slices"
)

// OrderedFile is a key-clustered file of fixed-size records: records live
// on pages in ascending key order, and an in-memory directory (one key per
// record) locates the page holding any key without charged I/O. This is
// the layout the paper's model implies for materialized procedure results
// and Rete memory nodes: changing the 2fl affected tuples touches only the
// y(fN, fb, 2fl) pages they live on, never a scan, and the locating
// directory (a B-tree's internal levels, assumed memory-resident for these
// small objects) is not charged.
//
// Keys are unique uint64s; callers that cluster by a non-unique attribute
// pack a tiebreaker into the low bits (see tuple.ClusterKey).
//
// The file is bound to a Disk; every metered access takes the calling
// session's Pager, so one shared file (a cache entry, a Rete memory) can
// be read by concurrent sessions each charging its own meter. The file's
// live directory state is not internally synchronized — mutations are
// serialized against each other by the engine's update locks (or the
// cache layer's entry mutexes), and snapshot readers resolve an immutable
// published directory copy instead (docs/MVCC.md).
type OrderedFile struct {
	recSize int
	perPage int
	dir     ofDir
	dv      *DirVersions
	// gen counts published copies of the directory: they share every
	// ofPage stamped below it, which ownPage copies before a write.
	gen uint64
}

// ofDir is the file's directory: the page list and the record count.
// Published copies are immutable and share unmodified pages with the live
// one.
type ofDir struct {
	pages []*ofPage
	n     int
}

type ofPage struct {
	id   PageID
	keys []uint64 // sorted; len(keys) = records on this page
	gen  uint64   // the file's gen when this page was created or last copied
}

// NewOrderedFile creates an empty ordered file of recSize-byte records,
// perPage to a page: the blocking factor comes from the model's tuple
// width, not from recSize, and each page image holds perPage × recSize
// bytes.
func NewOrderedFile(disk *Disk, recSize, perPage int) *OrderedFile {
	if recSize <= 0 || perPage < 1 || perPage*recSize > disk.PageSize() {
		panic(fmt.Sprintf("storage: %d records of %d bytes do not fit page size %d", perPage, recSize, disk.PageSize()))
	}
	f := &OrderedFile{recSize: recSize, perPage: perPage}
	f.dv = disk.RegisterDir(f.snapshotDir, f.restoreDir)
	return f
}

// Unversion excludes the file from MVCC directory snapshots: readers
// always see the live directory. Cache entry files rewritten at query
// time under their entry mutex use this (docs/MVCC.md).
func (f *OrderedFile) Unversion() { f.dv.Unversion() }

// snapshotDir freezes the live directory: the copy gets its own page list
// but shares every page entry, which the live side copies before writing.
func (f *OrderedFile) snapshotDir() any {
	f.gen++
	return &ofDir{pages: slices.Clone(f.dir.pages), n: f.dir.n}
}

// restoreDir resets the live directory to the published copy v; ownPage
// copies each shared entry before a write, as after snapshotDir.
func (f *OrderedFile) restoreDir(v any) {
	d := v.(*ofDir)
	f.dir = ofDir{pages: slices.Clone(d.pages), n: d.n}
}

// ownPage returns page pi of the live directory ready for in-place
// mutation of its keys, copying it first when a published directory
// shares it.
func (f *OrderedFile) ownPage(pi int) *ofPage {
	p := f.dir.pages[pi]
	if p.gen != f.gen {
		p = &ofPage{id: p.id, keys: slices.Clone(p.keys), gen: f.gen}
		f.dir.pages[pi] = p
	}
	return p
}

// dirFor resolves the directory a reader should walk: the newest published
// copy at the pager's snapshot stamp, else the live directory.
func (f *OrderedFile) dirFor(pg *Pager) *ofDir {
	if s, ok := pg.Snapshot(); ok {
		if d := f.dv.Lookup(s); d != nil {
			return d.(*ofDir)
		}
	}
	return &f.dir
}

// Len returns the number of records (live directory).
func (f *OrderedFile) Len() int { return f.dir.n }

// Pages returns the number of data pages (live directory).
func (f *OrderedFile) Pages() int { return len(f.dir.pages) }

// RecordSize returns the fixed record width in bytes.
func (f *OrderedFile) RecordSize() int { return f.recSize }

// pageFor returns the index of the page that does or should contain key:
// the first page whose max key >= key, otherwise the last page.
func (d *ofDir) pageFor(key uint64) int {
	lo, hi := 0, len(d.pages)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks := d.pages[mid].keys; ks[len(ks)-1] >= key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert stores rec under key, keeping key order. Inserting into an
// existing page is a read-modify-write of that page; a page split
// additionally writes the new page. Inserting a key that is already
// present panics: result and memory files hold sets, and a duplicate
// insertion indicates a maintenance bug upstream.
func (f *OrderedFile) Insert(pg *Pager, key uint64, rec []byte) {
	if !f.Add(pg, key, rec) {
		panic(fmt.Sprintf("storage: duplicate key %d", key))
	}
}

// Add is Insert for a caller that treats the file as a set: a key already
// present leaves the file untouched and Add reports false. One directory
// search decides and places the insertion.
func (f *OrderedFile) Add(pg *Pager, key uint64, rec []byte) bool {
	if len(rec) != f.recSize {
		panic(fmt.Sprintf("storage: record of %d bytes, want %d", len(rec), f.recSize))
	}
	if len(f.dir.pages) == 0 {
		f.dv.MarkDirty()
		id := pg.AllocPage()
		buf := pg.Overwrite(id, f.pageBytes())
		copy(buf, rec)
		f.dir.pages = append(f.dir.pages, &ofPage{id: id, keys: f.newKeys(key), gen: f.gen})
		f.dir.n = 1
		return true
	}
	pi := f.dir.pageFor(key)
	p := f.dir.pages[pi]
	slot, found := slices.BinarySearch(p.keys, key)
	if found {
		return false
	}
	f.dv.MarkDirty()
	if len(p.keys) == f.perPage {
		f.split(pg, pi)
		// Re-locate after the split.
		pi = f.dir.pageFor(key)
		p = f.dir.pages[pi]
		slot, _ = slices.BinarySearch(p.keys, key)
	}
	p = f.ownPage(pi)
	buf := pg.Update(p.id)
	// Shift records [slot, len) up one slot within the page.
	copy(buf[(slot+1)*f.recSize:(len(p.keys)+1)*f.recSize], buf[slot*f.recSize:len(p.keys)*f.recSize])
	copy(buf[slot*f.recSize:], rec)
	p.keys = append(p.keys, 0)
	copy(p.keys[slot+1:], p.keys[slot:])
	p.keys[slot] = key
	f.dir.n++
	return true
}

// pageBytes is the length of every page image: perPage records.
func (f *OrderedFile) pageBytes() int { return f.perPage * f.recSize }

// newKeys returns the key column of a page that starts out holding keys,
// sized for a full page so that inserts into it never reallocate.
func (f *OrderedFile) newKeys(keys ...uint64) []uint64 {
	return append(make([]uint64, 0, f.perPage), keys...)
}

// split divides page pi in half, moving the upper half to a fresh page
// inserted after it.
func (f *OrderedFile) split(pg *Pager, pi int) {
	p := f.ownPage(pi)
	half := len(p.keys) / 2
	newID := pg.AllocPage()
	oldBuf := pg.Update(p.id)
	newBuf := pg.Overwrite(newID, f.pageBytes())
	copy(newBuf, oldBuf[half*f.recSize:len(p.keys)*f.recSize])
	clear(oldBuf[half*f.recSize : len(p.keys)*f.recSize])
	newPage := &ofPage{id: newID, keys: f.newKeys(p.keys[half:]...), gen: f.gen}
	p.keys = p.keys[:half]
	f.dir.pages = append(f.dir.pages, nil)
	copy(f.dir.pages[pi+2:], f.dir.pages[pi+1:])
	f.dir.pages[pi+1] = newPage
}

// Delete removes the record stored under key, reporting whether it was
// present. A hit is a read-modify-write of the record's page; an emptied
// page is freed.
func (f *OrderedFile) Delete(pg *Pager, key uint64) bool {
	pi, slot, ok := f.dir.find(key)
	if !ok {
		return false
	}
	f.dv.MarkDirty()
	p := f.ownPage(pi)
	buf := pg.Update(p.id)
	copy(buf[slot*f.recSize:], buf[(slot+1)*f.recSize:len(p.keys)*f.recSize])
	clear(buf[(len(p.keys)-1)*f.recSize : len(p.keys)*f.recSize])
	p.keys = append(p.keys[:slot], p.keys[slot+1:]...)
	f.dir.n--
	if len(p.keys) == 0 {
		pg.Drop(p.id)
		pg.FreePage(p.id)
		f.dir.pages = append(f.dir.pages[:pi], f.dir.pages[pi+1:]...)
	}
	return true
}

// Contains reports whether key is present, using only the live in-memory
// directory (no charged I/O).
func (f *OrderedFile) Contains(key uint64) bool {
	_, _, ok := f.dir.find(key)
	return ok
}

// Get returns a copy of the record stored under key.
func (f *OrderedFile) Get(pg *Pager, key uint64) ([]byte, bool) {
	d := f.dirFor(pg)
	pi, slot, ok := d.find(key)
	if !ok {
		return nil, false
	}
	buf := pg.Read(d.pages[pi].id)
	out := make([]byte, f.recSize)
	copy(out, buf[slot*f.recSize:])
	return out, true
}

func (d *ofDir) find(key uint64) (pi, slot int, ok bool) {
	if len(d.pages) == 0 {
		return 0, 0, false
	}
	pi = d.pageFor(key)
	ks := d.pages[pi].keys
	slot, ok = slices.BinarySearch(ks, key)
	if !ok {
		return 0, 0, false
	}
	return pi, slot, true
}

// Scan calls fn for every record in ascending key order until fn returns
// false, charging one read per page touched. The rec slice aliases the
// page frame and is valid only during the call.
func (f *OrderedFile) Scan(pg *Pager, fn func(key uint64, rec []byte) bool) {
	d := f.dirFor(pg)
	for _, p := range d.pages {
		buf := pg.Read(p.id)
		for s, k := range p.keys {
			if !fn(k, buf[s*f.recSize:(s+1)*f.recSize]) {
				return
			}
		}
	}
}

// Records returns every record in key order, reading each page once like
// Scan. The records are borrowed: capacity-clipped sub-slices of the page
// images read, which are immutable, so they are read-only, stay valid
// until pg's next BeginOp, and a caller that keeps one copies it. The
// result slice is sized once from the directory pg resolves.
func (f *OrderedFile) Records(pg *Pager) [][]byte {
	d := f.dirFor(pg)
	out := make([][]byte, 0, d.n)
	for _, p := range d.pages {
		buf := pg.Read(p.id)
		for s := range p.keys {
			lo, hi := s*f.recSize, (s+1)*f.recSize
			out = append(out, buf[lo:hi:hi])
		}
	}
	return out
}

// ScanRange calls fn for every record with lo <= key <= hi in ascending
// order, reading only the pages that overlap the range.
func (f *OrderedFile) ScanRange(pg *Pager, lo, hi uint64, fn func(key uint64, rec []byte) bool) {
	d := f.dirFor(pg)
	if len(d.pages) == 0 || lo > hi {
		return
	}
	for pi := d.pageFor(lo); pi < len(d.pages); pi++ {
		p := d.pages[pi]
		if p.keys[0] > hi {
			return
		}
		if p.keys[len(p.keys)-1] < lo {
			continue
		}
		buf := pg.Read(p.id)
		for s, k := range p.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, buf[s*f.recSize:(s+1)*f.recSize]) {
				return
			}
		}
	}
}

// Clear frees every page, leaving an empty file, without charged I/O.
func (f *OrderedFile) Clear(pg *Pager) {
	f.dv.MarkDirty()
	for _, p := range f.dir.pages {
		pg.Drop(p.id)
		pg.FreePage(p.id)
	}
	f.dir.pages = f.dir.pages[:0]
	f.dir.n = 0
}

// Replace rebuilds the file from the given sorted records, modeling the
// cache refresh of the paper's C_WriteCache: each resulting page is a
// read-modify-write (2 charged I/Os). Keys must be strictly ascending and
// recs the same length as keys.
func (f *OrderedFile) Replace(pg *Pager, keys []uint64, recs [][]byte) {
	if len(keys) != len(recs) {
		panic("storage: Replace keys/recs length mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			panic("storage: Replace keys must be strictly ascending")
		}
	}
	f.Clear(pg)
	for i := 0; i < len(keys); i += f.perPage {
		end := i + f.perPage
		if end > len(keys) {
			end = len(keys)
		}
		id := pg.AllocPage()
		// Read, then Overwrite, so the rebuild charges read+write per page
		// (C_WriteCache = 2·C2·ProcSize), exactly as an Update would, but
		// the fresh page gets this file's image length.
		pg.Read(id)
		buf := pg.Overwrite(id, f.pageBytes())
		p := &ofPage{id: id, keys: slices.Clone(keys[i:end]), gen: f.gen}
		for s := i; s < end; s++ {
			if len(recs[s]) != f.recSize {
				panic(fmt.Sprintf("storage: record of %d bytes, want %d", len(recs[s]), f.recSize))
			}
			copy(buf[(s-i)*f.recSize:], recs[s])
		}
		f.dir.pages = append(f.dir.pages, p)
	}
	f.dir.n = len(keys)
}
