package btree

import (
	"fmt"

	"dbproc/internal/storage"
)

// BulkLoad builds a tree from records already sorted by ascending key,
// packing every leaf and internal node completely full. The simulator uses
// it to load R1 so the relation occupies exactly ⌈N/(B/S)⌉ pages, the b of
// the cost model; incremental Insert would leave splits half full.
//
// Bulk loading performs no charged I/O bookkeeping beyond the pager's
// normal rules; load with charging disabled as usual for setup. The pager
// is only the loading session's handle — the returned tree is bound to
// its disk and serves any session's pager afterwards.
func BulkLoad(pg *storage.Pager, recSize, indexEntrySize int, key Key, records [][]byte) *Tree {
	t := New(pg.Disk(), recSize, indexEntrySize, key)
	if len(records) == 0 {
		return t
	}

	// Validate widths and strict key order up front.
	for i, rec := range records {
		if len(rec) != recSize {
			panic(fmt.Sprintf("btree: record %d has %d bytes, want %d", i, len(rec), recSize))
		}
		if i > 0 && key.Of(rec) <= key.Of(records[i-1]) {
			panic(fmt.Sprintf("btree: bulk load records not strictly ascending at %d", i))
		}
	}

	// Level 0: packed leaves.
	type nodeRef struct {
		id  storage.PageID
		min uint64
	}
	var level []nodeRef
	var prevLeaf storage.PageID = storage.NilPage
	for start := 0; start < len(records); start += t.leafCap {
		end := start + t.leafCap
		if end > len(records) {
			end = len(records)
		}
		var id storage.PageID
		if len(level) == 0 {
			id = t.dir.root // reuse the empty root leaf
		} else {
			id = t.newNode(pg.AllocPage(), true)
			t.dir.numLeaves++
		}
		m := t.metaMut(id)
		buf := pg.Overwrite(id)
		for i := start; i < end; i++ {
			copy(buf[(i-start)*t.recSize:], records[i])
		}
		m.count = end - start
		m.prev = prevLeaf
		if prevLeaf != storage.NilPage {
			t.metaMut(prevLeaf).next = id
		}
		prevLeaf = id
		level = append(level, nodeRef{id, key.Of(records[start])})
	}
	t.dir.n = len(records)

	// Upper levels: packed internal nodes until a single root remains.
	for len(level) > 1 {
		var upper []nodeRef
		for start := 0; start < len(level); start += t.fanout {
			end := start + t.fanout
			if end > len(level) {
				end = len(level)
			}
			id := t.newNode(pg.AllocPage(), false)
			m := t.metaMut(id)
			buf := pg.Overwrite(id)
			for i := start; i < end; i++ {
				t.setEntry(buf, i-start, level[i].min, level[i].id)
			}
			m.count = end - start
			upper = append(upper, nodeRef{id, level[start].min})
		}
		level = upper
		t.dir.height++
	}
	t.dir.root = level[0].id
	return t
}
