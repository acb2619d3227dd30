// Package hashidx implements a static hashed primary index, the access
// method of relations R2 and R3 in the paper: records are stored in
// page-sized buckets selected by key modulo the bucket count, with
// overflow chains when a bucket page fills. An equality probe therefore
// touches one page in the well-sized case, so a batch of k random probes
// touches ~y(n, m, k) distinct pages — the quantity the cost model charges
// for index-nested-loop joins.
//
// A Table is bound to a Disk; every access method takes the calling
// session's Pager so concurrent sessions can probe one shared table while
// each charges its own meter. The live bucket directory is not internally
// synchronized — mutations are serialized by the engine's update locks,
// and snapshot readers probe an immutable published directory copy at
// their stamp instead (docs/MVCC.md). The bucket table is a persistent
// storage.Table, so a published copy shares every bucket chunk the update
// did not touch.
//
// Every bucket also carries a dense key column: the hash keys of its
// records in chain order, 8 bytes each, adjacent in memory. A probe
// compares against the column and slices a record out of its page only on
// a match, instead of striding the page a record at a time. The column
// is an access path, not part of the cost model: a probe still reads (and
// is charged for) every chain page it used to, in the same order. It
// follows the same copy-on-write rule as the chain: Insert appends, which
// a published copy never sees because it never reads past its own length;
// Delete moves the bucket's last key into the vacated position, which a
// published copy would see, so it writes a fresh column.
//
// LookupBatch is the probe of an index-nested-loop join: it takes up to
// BatchLen keys and stages the one part of a probe that touches no page.
// It resolves the directory once and then every key's bucket — a division
// and two dependent loads per key, independent across keys, so they
// overlap instead of each waiting behind the previous key's join — and
// only then walks the chains, one key after another, through the same walk
// LookupEach uses. Nothing is staged past the bucket: touching each key
// column and first page id a stage early was measured and bought nothing,
// and a page may not be read early at all, since a consumer that stops
// must leave the later keys' pages unread.
// Charges therefore cannot change: a batch issues exactly the Pager.Read
// calls, per key in chain order, that the same keys issue one at a time,
// and the operation's frame table charges a page once however the reads of
// different keys interleave with the caller's other reads.
package hashidx

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dbproc/internal/storage"
)

// Table is a static-hash file of fixed-size records.
type Table struct {
	recSize int
	perPage int
	keyOff  int
	dir     hashDir
	dv      *storage.DirVersions
}

// hashDir is the table's in-memory directory: the bucket chains and the
// record count. Updates mutate the live copy through bucketMut; published
// copies are immutable.
type hashDir struct {
	buckets    storage.Table[bucket]
	numBuckets int
	n          int
}

// bucket is one chain. Published directories share the pages slice: it
// may grow by append, but is clipped when truncated, so that a later append
// cannot overwrite an element a published copy still reads. keys is the
// key column, keys[i] the hash key of the chain's i-th record and
// len(keys) the number of records across the chain; it is shared the same
// way and never written in place.
type bucket struct {
	pages []storage.PageID
	keys  []uint64
}

// New creates an empty hash file with the given number of primary buckets.
// The hash key of a record is the little-endian uint64 at byte offset
// keyOff, read in place by every probe.
func New(disk *storage.Disk, recSize, numBuckets, keyOff int) *Table {
	perPage := disk.PageSize() / recSize
	if recSize <= 0 || perPage < 1 {
		panic(fmt.Sprintf("hashidx: record size %d does not fit page size %d", recSize, disk.PageSize()))
	}
	if numBuckets < 1 {
		panic("hashidx: need at least one bucket")
	}
	if keyOff < 0 || keyOff+8 > recSize {
		panic(fmt.Sprintf("hashidx: key at offset %d does not fit a %d-byte record", keyOff, recSize))
	}
	t := &Table{
		recSize: recSize,
		perPage: perPage,
		keyOff:  keyOff,
		dir:     hashDir{numBuckets: numBuckets},
	}
	t.dv = disk.RegisterDir(t.snapshotDir, t.restoreDir)
	return t
}

// keyOf extracts the hash key from a record's bytes.
func (t *Table) keyOf(rec []byte) uint64 {
	return binary.LittleEndian.Uint64(rec[t.keyOff:])
}

// snapshotDir freezes the live directory; the copy shares its bucket
// chunks with the live table until the next update rewrites them.
func (t *Table) snapshotDir() any {
	d := t.dir
	d.buckets = t.dir.buckets.Snapshot()
	return &d
}

// restoreDir resets the live directory to the published copy v.
func (t *Table) restoreDir(v any) {
	buckets := t.dir.buckets
	t.dir = *v.(*hashDir)
	buckets.Restore(t.dir.buckets)
	t.dir.buckets = buckets
}

// dirFor resolves the directory a reader should probe: the newest
// published copy at the pager's snapshot stamp, else the live directory.
func (t *Table) dirFor(pg *storage.Pager) *hashDir {
	if s, ok := pg.Snapshot(); ok {
		if d := t.dv.Lookup(s); d != nil {
			return d.(*hashDir)
		}
	}
	return &t.dir
}

// Len returns the number of records.
func (t *Table) Len() int { return t.dir.n }

// NumBuckets returns the number of primary buckets.
func (t *Table) NumBuckets() int { return t.dir.numBuckets }

// Pages returns the number of allocated bucket and overflow pages.
func (t *Table) Pages() int {
	total := 0
	for i := 0; i < t.dir.numBuckets; i++ {
		total += len(t.dir.buckets.Get(i).pages)
	}
	return total
}

// PerPage returns the blocking factor.
func (t *Table) PerPage() int { return t.perPage }

func (d *hashDir) bucketFor(key uint64) bucket {
	return d.buckets.Get(int(key % uint64(d.numBuckets)))
}

// bucketMut returns key's live bucket for writing.
func (t *Table) bucketMut(key uint64) *bucket {
	return t.dir.buckets.Mut(int(key % uint64(t.dir.numBuckets)))
}

// Insert stores a record in its key's bucket, allocating an overflow page
// if the chain is full. Duplicate keys are allowed.
func (t *Table) Insert(pg *storage.Pager, rec []byte) {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("hashidx: record of %d bytes, want %d", len(rec), t.recSize))
	}
	t.dv.MarkDirty()
	b := t.bucketMut(t.keyOf(rec))
	n := len(b.keys)
	slot := n % t.perPage
	var buf []byte
	if slot == 0 && n == len(b.pages)*t.perPage {
		id := pg.AllocPage()
		b.pages = append(b.pages, id)
		buf = pg.Overwrite(id)
	} else {
		buf = pg.Update(b.pages[n/t.perPage])
	}
	copy(buf[slot*t.recSize:], rec)
	b.keys = append(b.keys, t.keyOf(rec))
	t.dir.n++
}

// Lookup returns a copy of the first record with the given key, reading
// the bucket chain until found.
func (t *Table) Lookup(pg *storage.Pager, key uint64) ([]byte, bool) {
	var out []byte
	t.LookupEach(pg, key, func(rec []byte) bool {
		out = make([]byte, t.recSize)
		copy(out, rec)
		return false
	})
	return out, out != nil
}

// LookupEach calls fn for every record with the given key until fn returns
// false. The rec slice aliases the page frame and is valid only during the
// call. Matching by key is the hash machinery itself and is not a charged
// predicate screen; callers charge C1 for the predicates they evaluate on
// the results.
func (t *Table) LookupEach(pg *storage.Pager, key uint64, fn func(rec []byte) bool) {
	b := t.dirFor(pg).bucketFor(key)
	t.walk(pg, &b, key, 0, func(_ int, rec []byte) bool { return fn(rec) })
}

// BatchLen is the most keys one LookupBatch call takes.
const BatchLen = 32

// LookupBatch probes keys, at most BatchLen of them, calling fn(i, rec) for
// every record that matches keys[i] — in key order, then chain order —
// until fn returns false. Each key's chain is read as LookupEach reads it,
// and no key after the one fn stopped at is probed. rec is valid only
// during the call.
func (t *Table) LookupBatch(pg *storage.Pager, keys []uint64, fn func(i int, rec []byte) bool) {
	// Resolving a bucket is a division and two dependent loads, and nothing
	// in it waits on another key: done for the whole batch first, those
	// overlap instead of each queueing behind the previous key's join.
	var bs [BatchLen]bucket
	d := t.dirFor(pg)
	for i, key := range keys {
		bs[i] = d.bucketFor(key)
	}
	for i, key := range keys {
		if !t.walk(pg, &bs[i], key, i, fn) {
			return
		}
	}
}

// walk reads b's chain page by page, calling fn(i, rec) for every record
// whose key is key, and reports whether fn never returned false.
func (t *Table) walk(pg *storage.Pager, b *bucket, key uint64, i int, fn func(i int, rec []byte) bool) bool {
	keys := b.keys
	for _, id := range b.pages {
		if len(keys) == 0 {
			break
		}
		// Every chain page is read, and charged, whether or not the column
		// holds a match on it.
		buf := pg.Read(id)
		limit := min(t.perPage, len(keys))
		for s, k := range keys[:limit] {
			if k == key && !fn(i, buf[s*t.recSize:(s+1)*t.recSize]) {
				return false
			}
		}
		keys = keys[limit:]
	}
	return true
}

// Delete removes the first record with the given key, reporting whether
// one was present. The vacated slot is filled by the bucket's last record;
// an emptied overflow page is freed.
func (t *Table) Delete(pg *storage.Pager, key uint64) bool {
	return t.deleteWhere(pg, key, func([]byte) bool { return true })
}

// DeleteExact removes the first record whose bytes equal rec entirely,
// reporting whether one was present — the safe delete when several records
// share a hash key.
func (t *Table) DeleteExact(pg *storage.Pager, rec []byte) bool {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("hashidx: record of %d bytes, want %d", len(rec), t.recSize))
	}
	return t.deleteWhere(pg, t.keyOf(rec), func(got []byte) bool {
		for i := range rec {
			if got[i] != rec[i] {
				return false
			}
		}
		return true
	})
}

func (t *Table) deleteWhere(pg *storage.Pager, key uint64, match func([]byte) bool) bool {
	t.dv.MarkDirty()
	b := t.bucketMut(key)
	// Find the record's position in the chain.
	pos := -1
	remaining := len(b.keys)
scan:
	for pi, id := range b.pages {
		if remaining <= 0 {
			break
		}
		buf := pg.Read(id)
		limit := t.perPage
		if remaining < limit {
			limit = remaining
		}
		for s, k := range b.keys[pi*t.perPage : pi*t.perPage+limit] {
			if k == key && match(buf[s*t.recSize:(s+1)*t.recSize]) {
				pos = pi*t.perPage + s
				break scan
			}
		}
		remaining -= limit
	}
	if pos < 0 {
		return false
	}
	last := len(b.keys) - 1
	if pos != last {
		lastBuf := pg.Read(b.pages[last/t.perPage])
		rec := make([]byte, t.recSize)
		copy(rec, lastBuf[(last%t.perPage)*t.recSize:])
		buf := pg.Update(b.pages[pos/t.perPage])
		copy(buf[(pos%t.perPage)*t.recSize:], rec)
	} else {
		// Still a write: the slot is cleared below.
		_ = pg.Update(b.pages[pos/t.perPage])
	}
	lb := pg.Update(b.pages[last/t.perPage])
	clear(lb[(last%t.perPage)*t.recSize : (last%t.perPage+1)*t.recSize])
	// A fresh column: snapshot readers share the old one and would see an
	// in-place move.
	keys := slices.Clone(b.keys[:last])
	if pos != last {
		keys[pos] = b.keys[last]
	}
	b.keys = keys
	t.dir.n--
	if last%t.perPage == 0 && len(b.pages) > 0 && last == (len(b.pages)-1)*t.perPage {
		id := b.pages[len(b.pages)-1]
		b.pages = slices.Clip(b.pages[:len(b.pages)-1])
		pg.Drop(id)
		pg.FreePage(id)
	}
	return true
}

// ScanAll visits every record in bucket order. The rec slice is valid only
// during the call.
func (t *Table) ScanAll(pg *storage.Pager, fn func(rec []byte) bool) {
	d := t.dirFor(pg)
	for i := 0; i < d.numBuckets; i++ {
		b := d.buckets.Get(i)
		remaining := len(b.keys)
		for _, id := range b.pages {
			if remaining <= 0 {
				break
			}
			buf := pg.Read(id)
			limit := t.perPage
			if remaining < limit {
				limit = remaining
			}
			for s := 0; s < limit; s++ {
				if !fn(buf[s*t.recSize : (s+1)*t.recSize]) {
					return
				}
			}
			remaining -= limit
		}
	}
}
