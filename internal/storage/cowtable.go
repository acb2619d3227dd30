package storage

import "slices"

// tableChunkLen is the number of entries per Table chunk: the unit a
// mutation copies when the chunk is shared with a snapshot. It is short
// (16 × 24 bytes of B-tree node meta; it was 64, 1.5 KB) because an
// update touches ~45 scattered entries, one chunk each whatever its length.
const tableChunkLen = 16

// Table is a persistent array of T indexed by small non-negative ints
// (page ids, bucket numbers), the building block of the copy-on-write
// directories (docs/MVCC.md). Entries live in fixed-size chunks; Snapshot
// copies only the slice of chunk pointers, and the first Mut of a chunk
// after a snapshot copies that one chunk, so a published directory costs
// what the update touched, not what the structure holds. Entries never
// set read as the zero T.
//
// A Table is single-writer: Get on a snapshot is safe concurrently with
// Mut on the table it was taken from, nothing else is.
type Table[T any] struct {
	chunks []*tableChunk[T]
	// gen counts snapshots taken; a chunk stamped with an older gen is
	// reachable from one and must be copied before it is written.
	gen uint64
}

type tableChunk[T any] struct {
	gen  uint64
	vals [tableChunkLen]T
}

// Get returns entry i.
func (t *Table[T]) Get(i int) (v T) {
	if c := i / tableChunkLen; c < len(t.chunks) && t.chunks[c] != nil {
		return t.chunks[c].vals[i%tableChunkLen]
	}
	return v
}

// Mut returns entry i for writing, growing the table and unsharing the
// entry's chunk as needed. The pointer is valid until the next Snapshot.
func (t *Table[T]) Mut(i int) *T {
	c := i / tableChunkLen
	if c >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]*tableChunk[T], c+1-len(t.chunks))...)
	}
	ch := t.chunks[c]
	switch {
	case ch == nil:
		ch = &tableChunk[T]{gen: t.gen}
		t.chunks[c] = ch
	case ch.gen != t.gen:
		cp := *ch
		cp.gen = t.gen
		ch = &cp
		t.chunks[c] = ch
	}
	return &ch.vals[i%tableChunkLen]
}

// Snapshot returns an immutable copy that shares every chunk with t.
// Reference-typed fields of T are shared too: after a snapshot, replace
// them, never write through them.
func (t *Table[T]) Snapshot() Table[T] {
	t.gen++
	return Table[T]{chunks: slices.Clone(t.chunks)}
}

// Restore makes t a copy of snap, a Snapshot taken of t, discarding every
// mutation since. The chunks stay shared with snap; Snapshot moved t's gen
// past every one of them, so the next Mut of each copies it first.
func (t *Table[T]) Restore(snap Table[T]) {
	t.chunks = slices.Clone(snap.chunks)
}
