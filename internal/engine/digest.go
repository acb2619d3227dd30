package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Multipliers of the per-tuple hash (wyhash's odd 64-bit constants).
// They are part of Digest's definition: changing one changes every
// digest.
const (
	dk0 = 0xa0761d6478bd642f
	dk1 = 0xe7037ed1a0b428db
	dk2 = 0x8ebc6af09c88c6e3
	dk3 = 0x589965cc75374cc3
)

// fold multiplies to 128 bits and folds the halves together.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// step folds 16 bytes of a tuple, as two words, into both lanes.
func step(h0, h1, a, b uint64) (uint64, uint64) {
	return fold(a^dk1, b^h0), fold(a^h1, b^dk2)
}

// Digest canonicalizes a query result for equality comparison: a hash of
// the multiset of tuple byte-images, independent of delivery order.
//
// Each tuple is hashed 16 bytes per step into two independently keyed
// 64-bit values that also cover its length, so bytes cannot move across a
// tuple boundary unnoticed; the values are combined by wrapping sums, so
// order does not matter and multiplicity does (an XOR would cancel two
// equal tuples), and the tuple count rides along. It runs in one pass,
// sorts nothing, copies nothing, and its only allocation is the 24-byte
// result.
//
// What it guarantees: equal multisets give equal digests, in every
// process and on every host (fixed constants, little-endian loads, no
// seed). What it does not: it is not collision resistant against an
// adversary who chooses the tuples, and not a stable format — both sides
// of every comparison (the serializability oracle's replay, the served
// versus in-process history digest) call this function in the same
// build, and nothing stores its output.
func Digest(tuples [][]byte) []byte {
	var s0, s1 uint64
	for _, t := range tuples {
		n := uint64(len(t))
		h0, h1 := n^dk0, n^dk3
		for len(t) >= 16 {
			h0, h1 = step(h0, h1, binary.LittleEndian.Uint64(t), binary.LittleEndian.Uint64(t[8:]))
			t = t[16:]
		}
		if len(t) > 0 {
			// The zero padding is unambiguous because n is hashed too.
			var tail [16]byte
			copy(tail[:], t)
			h0, h1 = step(h0, h1, binary.LittleEndian.Uint64(tail[:]), binary.LittleEndian.Uint64(tail[8:]))
		}
		s0 += fold(h0^dk3, n^dk1)
		s1 += fold(h1^dk0, n^dk2)
	}
	out := make([]byte, 24) // two lanes and the count
	binary.LittleEndian.PutUint64(out, s0)
	binary.LittleEndian.PutUint64(out[8:], s1)
	binary.LittleEndian.PutUint64(out[16:], uint64(len(tuples)))
	return out
}

// historyDigest is the running digest of a committed history: the commit
// step folds each op in, in commit order, under the commit mutex. It
// covers what identifies a committed op and what it returned — sequence,
// session, kind, procedure, workload index, tuple count, the bits of the
// simulated cost and the result digest — and mixes them two words per
// step into both lanes, as Digest mixes a tuple. Unlike Digest it chains:
// each step reads the lanes the last one left, so the same ops in another
// order fold to another digest. It formats nothing and allocates nothing,
// so an engine can digest a history of any length while keeping none of
// it; HistoryDigest replays the same fold over a recorded history.
type historyDigest struct{ h0, h1, n uint64 }

func newHistoryDigest() historyDigest { return historyDigest{h0: dk0, h1: dk3} }

// add folds one committed op in.
func (d *historyDigest) add(he *HistoryEntry) {
	h0, h1 := step(d.h0, d.h1, uint64(he.Seq), uint64(he.Session))
	h0, h1 = step(h0, h1, uint64(he.Op.Kind), uint64(he.Op.ProcID))
	h0, h1 = step(h0, h1, uint64(he.Op.Index), uint64(he.Tuples))
	h0, h1 = step(h0, h1, math.Float64bits(he.CostMs), uint64(len(he.Result)))
	r := he.Result
	for len(r) >= 16 {
		h0, h1 = step(h0, h1, binary.LittleEndian.Uint64(r), binary.LittleEndian.Uint64(r[8:]))
		r = r[16:]
	}
	if len(r) > 0 {
		// The zero padding is unambiguous because the length is folded too.
		var tail [16]byte
		copy(tail[:], r)
		h0, h1 = step(h0, h1, binary.LittleEndian.Uint64(tail[:]), binary.LittleEndian.Uint64(tail[8:]))
	}
	d.h0, d.h1 = h0, h1
	d.n++
}

// String renders both lanes and the op count in hex.
func (d historyDigest) String() string {
	return fmt.Sprintf("%016x%016x%016x", d.h0, d.h1, d.n)
}

// HistoryDigest replays the running fold over a recorded history, in
// slice order: for the history a run recorded under
// Options.RecordHistory it equals that run's Result.HistoryDigest. A
// served run and an in-process run that committed identical histories
// report identical digests, which is how the identity tests compare them
// without shipping the history over the wire. Like Digest it is a
// comparison within one build, not a stored format.
func HistoryDigest(h []HistoryEntry) string {
	d := newHistoryDigest()
	for i := range h {
		d.add(&h[i])
	}
	return d.String()
}
