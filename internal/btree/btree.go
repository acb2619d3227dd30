// Package btree implements the clustered B+-tree used as the primary
// access method of relation R1: leaf pages hold tuples in key order at the
// blocking factor ⌊B/S⌋, and internal pages hold d-byte index entries
// (fanout ⌊B/d⌋), exactly the geometry of the paper's cost model. S sets
// the blocking factor only: a leaf's image holds its ⌊B/S⌋ records packed,
// each as long as its attributes (recSize), with no padding out to S or
// to B. Internal pages keep the stride d and a full B-byte image.
//
// Node headers (record counts, sibling links) are kept in an out-of-band
// in-memory table so the on-page blocking factors match the model exactly;
// the pages themselves hold the real records. The root page is treated as
// pinned in memory: descending through it is not a charged read, so a
// default-parameter index lookup charges H1 = 1 page read as in the model.
//
// A Tree is bound to a Disk; every access method takes the calling
// session's Pager, so concurrent sessions can read one shared tree while
// each charges its own meter. The tree's live directory state (meta table,
// root, height) is not internally synchronized — mutations are serialized
// by the engine's update locks, and snapshot readers traverse an immutable
// published directory copy at their stamp instead (docs/MVCC.md). The
// meta table is a persistent storage.Table, so a published copy shares
// every chunk of node metas the update did not touch.
package btree

import (
	"encoding/binary"
	"fmt"

	"dbproc/internal/storage"
)

// Key locates the ordering key inside a record: the little-endian 32-bit
// word at byte offset Hi is the key's upper half and the one at Lo its
// lower half, so leaf probes read the key in place instead of calling
// out. Key{Hi: 4} is a plain little-endian uint64 at offset 0; a relation
// clustered on one int64 attribute with another as the unique tiebreaker
// (tuple.ClusterKey) points Hi and Lo at the two attributes. Keys must be
// unique.
type Key struct{ Hi, Lo int }

// Of extracts the ordering key from a record's bytes.
func (k Key) Of(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec[k.Hi:]))<<32 | uint64(binary.LittleEndian.Uint32(rec[k.Lo:]))
}

// Tree is a clustered B+-tree of fixed-size records.
type Tree struct {
	recSize int
	leafCap int // records per leaf page
	fanout  int // index entries (children) per internal page
	stride  int // bytes reserved per index entry (the paper's d)
	key     Key

	dir       treeDir
	dv        *storage.DirVersions
	noRootPin bool
}

// treeDir is the tree's in-memory directory: the node meta table (indexed
// by page id) and the shape counters. Updates mutate the live copy through
// metaMut; published copies are immutable and traversed by snapshot
// readers.
type treeDir struct {
	root      storage.PageID
	meta      storage.Table[nodeMeta]
	height    int // levels including the leaf level; 1 = root is a leaf
	n         int
	numLeaves int
}

// SetRootPinned controls whether descending through the root of a
// multi-level tree is a charged page read. The default (pinned) models the
// universal practice of keeping the root resident, and makes the
// default-parameter descent cost match the model's H1 = 1; unpinning
// exists for the ablation experiment.
func (t *Tree) SetRootPinned(pinned bool) { t.noRootPin = !pinned }

type nodeMeta struct {
	leaf       bool
	count      int // records (leaf) or children (internal)
	next, prev storage.PageID
}

// New creates an empty tree. recSize is the bytes a record occupies;
// leafCap is the leaf blocking factor, the paper's ⌊B/S⌋; indexEntrySize
// is the paper's d, the bytes reserved per internal index entry (at least
// 12 are needed for the stored key and child id).
func New(disk *storage.Disk, recSize, leafCap, indexEntrySize int, key Key) *Tree {
	pageSize := disk.PageSize()
	fanout := pageSize / indexEntrySize
	if recSize <= 0 || leafCap < 2 || leafCap*recSize > pageSize {
		panic(fmt.Sprintf("btree: need 2 to %d records of %d bytes per leaf, got %d", pageSize/max(recSize, 1), recSize, leafCap))
	}
	if indexEntrySize < 12 || fanout < 3 {
		panic(fmt.Sprintf("btree: index entry size %d invalid for page %d", indexEntrySize, pageSize))
	}
	if key.Hi < 0 || key.Lo < 0 || key.Hi+4 > recSize || key.Lo+4 > recSize {
		panic(fmt.Sprintf("btree: key words at %d and %d do not fit a %d-byte record", key.Hi, key.Lo, recSize))
	}
	t := &Tree{
		recSize: recSize,
		leafCap: leafCap,
		fanout:  fanout,
		stride:  indexEntrySize,
		key:     key,
		dir:     treeDir{height: 1},
	}
	t.dir.root = t.newNode(disk.Alloc(), true)
	disk.WriteRaw(t.dir.root, make([]byte, t.leafBytes()))
	t.dir.numLeaves = 1
	t.dv = disk.RegisterDir(t.snapshotDir, t.restoreDir)
	return t
}

// snapshotDir freezes the live directory; the copy shares its meta chunks
// with the live table until the next update rewrites them.
func (t *Tree) snapshotDir() any {
	d := t.dir
	d.meta = t.dir.meta.Snapshot()
	return &d
}

// restoreDir resets the live directory to the published copy v.
func (t *Tree) restoreDir(v any) {
	meta := t.dir.meta
	t.dir = *v.(*treeDir)
	meta.Restore(t.dir.meta)
	t.dir.meta = meta
}

// node returns node id's meta as directory d records it.
func (d *treeDir) node(id storage.PageID) nodeMeta { return d.meta.Get(int(id)) }

// metaMut returns node id's live meta for writing.
func (t *Tree) metaMut(id storage.PageID) *nodeMeta { return t.dir.meta.Mut(int(id)) }

// dirFor resolves the directory a reader should traverse: the newest
// published copy at the pager's snapshot stamp, else the live directory.
func (t *Tree) dirFor(pg *storage.Pager) *treeDir {
	if s, ok := pg.Snapshot(); ok {
		if d := t.dv.Lookup(s); d != nil {
			return d.(*treeDir)
		}
	}
	return &t.dir
}

// Len returns the number of records.
func (t *Tree) Len() int { return t.dir.n }

// Height returns the number of levels including the leaf level.
func (t *Tree) Height() int { return t.dir.height }

// LeafPages returns the number of leaf pages.
func (t *Tree) LeafPages() int { return t.dir.numLeaves }

// LeafCapacity returns the blocking factor of leaf pages.
func (t *Tree) LeafCapacity() int { return t.leafCap }

// Fanout returns the maximum number of children of an internal node.
func (t *Tree) Fanout() int { return t.fanout }

func (t *Tree) newNode(id storage.PageID, leaf bool) storage.PageID {
	*t.metaMut(id) = nodeMeta{leaf: leaf, next: storage.NilPage, prev: storage.NilPage}
	return id
}

// readNode fetches a node page for reading against directory d. The root
// of a multi-level tree is pinned: no charge.
func (t *Tree) readNode(pg *storage.Pager, d *treeDir, id storage.PageID) []byte {
	if id == d.root && d.height > 1 && !t.noRootPin {
		prev := pg.SetCharging(false)
		buf := pg.Read(id)
		pg.SetCharging(prev)
		return buf
	}
	return pg.Read(id)
}

func (t *Tree) writeNode(pg *storage.Pager, id storage.PageID) []byte {
	if id == t.dir.root && t.dir.height > 1 && !t.noRootPin {
		prev := pg.SetCharging(false)
		buf := pg.Update(id)
		pg.SetCharging(prev)
		return buf
	}
	return pg.Update(id)
}

// Leaf record accessors.

// leafBytes is the length of a leaf page's image: leafCap records.
func (t *Tree) leafBytes() int { return t.leafCap * t.recSize }

func (t *Tree) leafRec(buf []byte, i int) []byte {
	return buf[i*t.recSize : (i+1)*t.recSize]
}

// Internal entry accessors: entry i is (key uint64, child int32) stored at
// offset i*stride.

func getU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func (t *Tree) entryKey(buf []byte, i int) uint64 {
	return getU64(buf[i*t.stride:])
}

func (t *Tree) entryChild(buf []byte, i int) storage.PageID {
	o := i*t.stride + 8
	return storage.PageID(uint32(buf[o]) | uint32(buf[o+1])<<8 | uint32(buf[o+2])<<16 | uint32(buf[o+3])<<24)
}

func (t *Tree) setEntry(buf []byte, i int, key uint64, child storage.PageID) {
	putU64(buf[i*t.stride:], key)
	o := i*t.stride + 8
	v := uint32(child)
	buf[o], buf[o+1], buf[o+2], buf[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// childIndex returns the index of the child to descend into for key: the
// rightmost entry whose separator is <= key, clamped to 0 so keys below
// every separator go to the leftmost child.
func (t *Tree) childIndex(buf []byte, count int, key uint64) int {
	lo, hi := 0, count // search first entry with sep > key
	for lo < hi {
		mid := (lo + hi) / 2
		if t.entryKey(buf, mid) > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// leafSlot returns the insertion position for key among the leaf's
// records, and whether the key is already present at that position.
func (t *Tree) leafSlot(buf []byte, count int, key uint64) (int, bool) {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if t.key.Of(t.leafRec(buf, mid)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < count && t.key.Of(t.leafRec(buf, lo)) == key
	return lo, found
}

// Insert adds a record; its key must not already be present.
func (t *Tree) Insert(pg *storage.Pager, rec []byte) {
	if len(rec) != t.recSize {
		panic(fmt.Sprintf("btree: record of %d bytes, want %d", len(rec), t.recSize))
	}
	t.dv.MarkDirty()
	key := t.key.Of(rec)
	newID, sep, split := t.insertAt(pg, t.dir.root, key, rec)
	if split {
		oldRoot := t.dir.root
		newRoot := t.newNode(pg.AllocPage(), false)
		// Temporarily make newRoot the root before writing so pin logic
		// applies consistently; height grows by one level.
		t.dir.root = newRoot
		t.dir.height++
		buf := t.writeNode(pg, newRoot)
		t.setEntry(buf, 0, 0, oldRoot) // leftmost separator is an open bound
		t.setEntry(buf, 1, sep, newID)
		t.metaMut(newRoot).count = 2
	}
	t.dir.n++
}

// insertAt inserts into the subtree rooted at id, returning a new right
// sibling and its separator key if the node split.
func (t *Tree) insertAt(pg *storage.Pager, id storage.PageID, key uint64, rec []byte) (storage.PageID, uint64, bool) {
	m := t.dir.node(id)
	if m.leaf {
		return t.insertLeaf(pg, id, key, rec)
	}
	buf := t.readNode(pg, &t.dir, id)
	ci := t.childIndex(buf, m.count, key)
	child := t.entryChild(buf, ci)
	newChild, sep, split := t.insertAt(pg, child, key, rec)
	if !split {
		return storage.NilPage, 0, false
	}
	return t.insertEntry(pg, id, ci+1, sep, newChild)
}

func (t *Tree) insertLeaf(pg *storage.Pager, id storage.PageID, key uint64, rec []byte) (storage.PageID, uint64, bool) {
	m := t.metaMut(id)
	buf := t.writeNode(pg, id)
	slot, found := t.leafSlot(buf, m.count, key)
	if found {
		panic(fmt.Sprintf("btree: duplicate key %d", key))
	}
	if m.count < t.leafCap {
		copy(buf[(slot+1)*t.recSize:(m.count+1)*t.recSize], buf[slot*t.recSize:m.count*t.recSize])
		copy(buf[slot*t.recSize:], rec)
		m.count++
		return storage.NilPage, 0, false
	}
	// Split: upper half moves to a new right sibling.
	rightID := t.newNode(pg.AllocPage(), true)
	t.dir.numLeaves++
	rm := t.metaMut(rightID)
	half := m.count / 2
	rbuf := pg.Overwrite(rightID, t.leafBytes())
	copy(rbuf, buf[half*t.recSize:m.count*t.recSize])
	clear(buf[half*t.recSize : m.count*t.recSize])
	rm.count = m.count - half
	m.count = half
	// Fix the leaf chain.
	rm.next, rm.prev = m.next, id
	if m.next != storage.NilPage {
		t.metaMut(m.next).prev = rightID
	}
	m.next = rightID
	// Insert into the proper side.
	sep := t.key.Of(t.leafRec(rbuf, 0))
	if key >= sep {
		rslot, _ := t.leafSlot(rbuf, rm.count, key)
		copy(rbuf[(rslot+1)*t.recSize:(rm.count+1)*t.recSize], rbuf[rslot*t.recSize:rm.count*t.recSize])
		copy(rbuf[rslot*t.recSize:], rec)
		rm.count++
	} else {
		copy(buf[(slot+1)*t.recSize:(m.count+1)*t.recSize], buf[slot*t.recSize:m.count*t.recSize])
		copy(buf[slot*t.recSize:], rec)
		m.count++
	}
	return rightID, t.key.Of(t.leafRec(rbuf, 0)), true
}

// insertEntry inserts (sep, child) at position pos of internal node id,
// splitting it if full.
func (t *Tree) insertEntry(pg *storage.Pager, id storage.PageID, pos int, sep uint64, child storage.PageID) (storage.PageID, uint64, bool) {
	m := t.metaMut(id)
	buf := t.writeNode(pg, id)
	if m.count < t.fanout {
		copy(buf[(pos+1)*t.stride:(m.count+1)*t.stride], buf[pos*t.stride:m.count*t.stride])
		t.setEntry(buf, pos, sep, child)
		m.count++
		return storage.NilPage, 0, false
	}
	rightID := t.newNode(pg.AllocPage(), false)
	rm := t.metaMut(rightID)
	half := m.count / 2
	rbuf := pg.Overwrite(rightID, pg.Disk().PageSize())
	copy(rbuf, buf[half*t.stride:m.count*t.stride])
	clear(buf[half*t.stride : m.count*t.stride])
	rm.count = m.count - half
	m.count = half
	rightSep := t.entryKey(rbuf, 0)
	if sep >= rightSep {
		rpos := pos - half
		copy(rbuf[(rpos+1)*t.stride:(rm.count+1)*t.stride], rbuf[rpos*t.stride:rm.count*t.stride])
		t.setEntry(rbuf, rpos, sep, child)
		rm.count++
	} else {
		copy(buf[(pos+1)*t.stride:(m.count+1)*t.stride], buf[pos*t.stride:m.count*t.stride])
		t.setEntry(buf, pos, sep, child)
		m.count++
	}
	return rightID, rightSep, true
}

// Get returns a copy of the record with the given key.
func (t *Tree) Get(pg *storage.Pager, key uint64) ([]byte, bool) {
	d := t.dirFor(pg)
	id := d.root
	m := d.node(id)
	for !m.leaf {
		buf := t.readNode(pg, d, id)
		id = t.entryChild(buf, t.childIndex(buf, m.count, key))
		m = d.node(id)
	}
	buf := t.readNode(pg, d, id)
	slot, found := t.leafSlot(buf, m.count, key)
	if !found {
		return nil, false
	}
	out := make([]byte, t.recSize)
	copy(out, t.leafRec(buf, slot))
	return out, true
}

// Delete removes the record with the given key, reporting whether it was
// present. Emptied nodes are freed and unlinked; no other rebalancing is
// performed (the workload's delete+insert churn keeps pages near full).
func (t *Tree) Delete(pg *storage.Pager, key uint64) bool {
	t.dv.MarkDirty()
	// Record the descent path for cascade cleanup.
	type step struct {
		id storage.PageID
		ci int
	}
	var path []step
	id := t.dir.root
	for nm := t.dir.node(id); !nm.leaf; nm = t.dir.node(id) {
		buf := t.readNode(pg, &t.dir, id)
		ci := t.childIndex(buf, nm.count, key)
		path = append(path, step{id, ci})
		id = t.entryChild(buf, ci)
	}
	m := t.metaMut(id)
	buf := t.writeNode(pg, id)
	slot, found := t.leafSlot(buf, m.count, key)
	if !found {
		return false
	}
	copy(buf[slot*t.recSize:], buf[(slot+1)*t.recSize:m.count*t.recSize])
	clear(buf[(m.count-1)*t.recSize : m.count*t.recSize])
	m.count--
	t.dir.n--

	// Cascade removal of emptied nodes.
	for m.count == 0 && id != t.dir.root {
		if m.leaf {
			if m.prev != storage.NilPage {
				t.metaMut(m.prev).next = m.next
			}
			if m.next != storage.NilPage {
				t.metaMut(m.next).prev = m.prev
			}
			t.dir.numLeaves--
		}
		t.freeNode(pg, id)
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		pm := t.metaMut(parent.id)
		pbuf := t.writeNode(pg, parent.id)
		copy(pbuf[parent.ci*t.stride:], pbuf[(parent.ci+1)*t.stride:pm.count*t.stride])
		clear(pbuf[(pm.count-1)*t.stride : pm.count*t.stride])
		pm.count--
		id, m = parent.id, pm
	}

	// Collapse a single-child root to reduce height.
	for id == t.dir.root && m.count == 1 && !m.leaf {
		buf := t.readNode(pg, &t.dir, id)
		child := t.entryChild(buf, 0)
		t.freeNode(pg, id)
		t.dir.root = child
		t.dir.height--
		id, m = child, t.metaMut(child)
	}
	if m.count == 0 && m.leaf && id == t.dir.root {
		// Tree is empty; keep the root leaf.
		t.dir.numLeaves = 1
	}
	return true
}

func (t *Tree) freeNode(pg *storage.Pager, id storage.PageID) {
	*t.metaMut(id) = nodeMeta{}
	pg.Drop(id)
	pg.FreePage(id)
}

// ScanRange calls fn for each record with lo <= key <= hi in ascending key
// order until fn returns false. It descends once (charging internal page
// reads below the pinned root) and then follows the leaf chain, charging
// one read per leaf touched. The rec slice is only valid during the call.
func (t *Tree) ScanRange(pg *storage.Pager, lo, hi uint64, fn func(rec []byte) bool) {
	d := t.dirFor(pg)
	if lo > hi || d.n == 0 {
		return
	}
	id := d.root
	for m := d.node(id); !m.leaf; m = d.node(id) {
		buf := t.readNode(pg, d, id)
		id = t.entryChild(buf, t.childIndex(buf, m.count, lo))
	}
	for id != storage.NilPage {
		m := d.node(id)
		buf := t.readNode(pg, d, id)
		start, _ := t.leafSlot(buf, m.count, lo)
		for i := start; i < m.count; i++ {
			rec := t.leafRec(buf, i)
			if t.key.Of(rec) > hi {
				return
			}
			if !fn(rec) {
				return
			}
		}
		id = m.next
	}
}

// ScanAll visits every record in ascending key order.
func (t *Tree) ScanAll(pg *storage.Pager, fn func(rec []byte) bool) {
	t.ScanRange(pg, 0, ^uint64(0), fn)
}
