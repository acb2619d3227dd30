package btree

import (
	"encoding/binary"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

func TestBulkLoadPacksLeaves(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(64), m)
	recs := make([][]byte, 400)
	for i := range recs {
		recs[i] = recFor(uint64(i), uint64(i)*3)
	}
	tr := BulkLoad(p, 16, 4, 64/5, keyAt0, recs)
	if tr.Len() != 400 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if lp := tr.LeafPages(); lp != 100 { // 400 records, 4 per leaf, packed
		t.Fatalf("LeafPages = %d, want 100", lp)
	}
	for i := uint64(0); i < 400; i++ {
		rec, ok := tr.Get(p, i)
		if !ok || binary.LittleEndian.Uint64(rec[8:]) != i*3 {
			t.Fatalf("Get(%d) failed", i)
		}
	}
	// The loaded tree accepts further inserts and deletes.
	tr.Insert(p, recFor(1000, 1))
	if !tr.Delete(p, 0) || !tr.Delete(p, 399) {
		t.Fatal("delete after bulk load failed")
	}
	var count int
	prev := int64(-1)
	tr.ScanAll(p, func(rec []byte) bool {
		if k := int64(keyOf(rec)); k <= prev {
			t.Fatalf("order violated at %d", k)
		} else {
			prev = k
		}
		count++
		return true
	})
	if count != 399 {
		t.Fatalf("scan after churn visited %d, want 399", count)
	}
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(64), m)
	tr := BulkLoad(p, 16, 4, 64/5, keyAt0, nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("empty bulk load wrong")
	}
	p2 := storage.NewPager(storage.NewDisk(64), m)
	tr2 := BulkLoad(p2, 16, 4, 64/5, keyAt0, [][]byte{recFor(9, 9)})
	if tr2.Len() != 1 || tr2.Height() != 1 {
		t.Fatal("single-record bulk load wrong")
	}
	if _, ok := tr2.Get(p2, 9); !ok {
		t.Fatal("single record missing")
	}
}

func TestBulkLoadValidation(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	for name, recs := range map[string][][]byte{
		"descending":  {recFor(2, 0), recFor(1, 0)},
		"duplicate":   {recFor(2, 0), recFor(2, 1)},
		"wrong width": {make([]byte, 8)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			p := storage.NewPager(storage.NewDisk(64), m)
			BulkLoad(p, 16, 4, 64/5, keyAt0, recs)
		}()
	}
}

func TestBulkLoadPaperGeometryExact(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk geometry test")
	}
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(4000), m)
	p.SetCharging(false)
	recs := make([][]byte, 100_000)
	for i := range recs {
		r := make([]byte, 100)
		binary.LittleEndian.PutUint64(r, uint64(i))
		recs[i] = r
	}
	tr := BulkLoad(p, 100, 40, 20, Key{Hi: 4}, recs)
	if lp := tr.LeafPages(); lp != 2500 {
		t.Fatalf("LeafPages = %d, want exactly 2500 (the model's b)", lp)
	}
	// 2500 leaves at fanout 200: one internal level of 13 nodes + root.
	if h := tr.Height(); h != 3 {
		t.Fatalf("Height = %d, want 3", h)
	}
}
