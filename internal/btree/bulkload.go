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
func BulkLoad(pg *storage.Pager, recSize, leafCap, indexEntrySize int, key Key, records [][]byte) *Tree {
	return BulkLoadFunc(pg, recSize, leafCap, indexEntrySize, key, len(records), func(i int, rec []byte) {
		if len(records[i]) != recSize {
			panic(fmt.Sprintf("btree: record %d has %d bytes, want %d", i, len(records[i]), recSize))
		}
		copy(rec, records[i])
	})
}

// BulkLoadFunc is BulkLoad for n records that fill writes in place:
// fill(i, rec) writes record i into rec, its zeroed slot on a leaf page,
// in ascending i. Keys must ascend strictly with i.
func BulkLoadFunc(pg *storage.Pager, recSize, leafCap, indexEntrySize int, key Key, n int, fill func(i int, rec []byte)) *Tree {
	t := New(pg.Disk(), recSize, leafCap, indexEntrySize, key)
	if n == 0 {
		return t
	}

	// Level 0: packed leaves.
	type nodeRef struct {
		id  storage.PageID
		min uint64
	}
	var level []nodeRef
	var prevLeaf storage.PageID = storage.NilPage
	var prevKey uint64
	for start := 0; start < n; start += t.leafCap {
		end := min(start+t.leafCap, n)
		var id storage.PageID
		if len(level) == 0 {
			id = t.dir.root // reuse the empty root leaf
		} else {
			id = t.newNode(pg.AllocPage(), true)
			t.dir.numLeaves++
		}
		m := t.metaMut(id)
		buf := pg.Overwrite(id, t.leafBytes())
		for i := start; i < end; i++ {
			rec := t.leafRec(buf, i-start)
			fill(i, rec)
			k := key.Of(rec)
			if i > 0 && k <= prevKey {
				panic(fmt.Sprintf("btree: bulk load records not strictly ascending at %d", i))
			}
			prevKey = k
		}
		m.count = end - start
		m.prev = prevLeaf
		if prevLeaf != storage.NilPage {
			t.metaMut(prevLeaf).next = id
		}
		prevLeaf = id
		level = append(level, nodeRef{id, key.Of(t.leafRec(buf, 0))})
	}
	t.dir.n = n

	// Upper levels: packed internal nodes until a single root remains.
	for len(level) > 1 {
		var upper []nodeRef
		for start := 0; start < len(level); start += t.fanout {
			end := min(start+t.fanout, len(level))
			id := t.newNode(pg.AllocPage(), false)
			m := t.metaMut(id)
			buf := pg.Overwrite(id, pg.Disk().PageSize())
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
