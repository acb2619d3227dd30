package query

import (
	"testing"

	"dbproc/internal/dbtest"
	"dbproc/internal/hashidx"
)

// TestProbeStopsAtTheRowThatSaidStop: a consumer that returns false at the
// k-th row sees no k+1-th, and the operation has charged what probing stops
// at that row charges. The child has been scanned and screened to the end
// of the batch the row's tuple was gathered in; the table has been probed
// for the keys up to that tuple's, the tuple's own chain as far as the
// row's record, and for no key after it.
func TestProbeStopsAtTheRowThatSaidStop(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{N2: 160}) // 40 buckets of R2, a page each
	ctx := &Ctx{Meter: w.Meter, Pager: w.Pager}
	// R2 tuples of keys 0, 5, …, 25 twice more, and no tuple of keys 160–189:
	// some probes emit three rows down an overflow chain, some none.
	s2 := w.R2.Schema()
	for j := int64(0); j < 12; j++ {
		dup := s2.New()
		s2.SetByName(dup, "tid", 100+j)
		s2.SetByName(dup, "b", j%6*5)
		w.R2.Insert(w.Pager, dup)
	}
	s1 := w.R1.Schema()
	for tid := int64(300); tid < 340; tid++ {
		w.R1.Insert(w.Pager, w.R1Tuple(tid, tid, 150+tid%40))
	}
	scan := NewBTreeRangeScan(w.R1, 100, 339) // 140 tuples: four batches and a part
	join := NewHashJoinProbe(scan, w.R2, "a", 80)

	w.Pager.BeginOp()
	var keys []uint64
	scan.Execute(ctx, func(tup []byte) bool {
		keys = append(keys, uint64(s1.GetByName(tup, "a")))
		return true
	})
	w.Pager.BeginOp()
	total := len(Run(join, ctx))
	if len(keys) != 140 || total != 140-30+12 {
		t.Fatalf("%d rows of %d tuples, want 140 tuples, 30 of them without a match and 12 rows of duplicates", total, len(keys))
	}

	for k := 1; k <= total; k++ {
		// The reference, by hand: probe key after key until the k-th record,
		// then scan the child to the end of that key's batch.
		w.Pager.BeginOp()
		w.Meter.Reset()
		records, at := 0, 0
		for i, key := range keys {
			w.R2.Hash().LookupEach(w.Pager, key, func([]byte) bool { records++; return records < k })
			if at = i; records == k {
				break
			}
		}
		gathered := min(len(keys), (at/hashidx.BatchLen+1)*hashidx.BatchLen)
		n := 0
		scan.Execute(ctx, func([]byte) bool { n++; return n < gathered || gathered == len(keys) })
		want := w.Meter.Snapshot()

		w.Pager.BeginOp()
		w.Meter.Reset()
		rows := 0
		join.Execute(ctx, func([]byte) bool { rows++; return rows < k })
		got := w.Meter.Snapshot()
		if rows != k {
			t.Fatalf("told to stop at row %d, the join emitted %d", k, rows)
		}
		if got.PageReads != want.PageReads || got.Screens != want.Screens {
			t.Fatalf("stopped at row %d (tuple %d): %d page reads and %d screens, want %d and %d",
				k, at, got.PageReads, got.Screens, want.PageReads, want.Screens)
		}
	}

	// The model-2 shape stops too: the outer join's stop reaches the inner
	// join through its gather, and the scan through the inner's.
	join3 := NewHashJoinProbe(join, w.R3, "r2_c", 80)
	w.Pager.BeginOp()
	total = len(Run(join3, ctx))
	for k := 1; k <= total; k += 7 {
		w.Pager.BeginOp()
		rows := 0
		join3.Execute(ctx, func([]byte) bool { rows++; return rows < k })
		if rows != k {
			t.Fatalf("told to stop at row %d, the three-way join emitted %d", k, rows)
		}
	}
}
