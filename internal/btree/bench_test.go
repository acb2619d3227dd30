package btree

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// paperTree builds a bulk-loaded tree with the paper's geometry: 100-byte
// records on 4000-byte pages, 20-byte index entries.
func paperTree(b *testing.B, n int) (*Tree, *storage.Pager) {
	b.Helper()
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(4000), m)
	p.SetCharging(false)
	recs := make([][]byte, n)
	for i := range recs {
		r := make([]byte, 100)
		binary.LittleEndian.PutUint64(r, uint64(i*2)) // gaps for later inserts
		recs[i] = r
	}
	return BulkLoad(p, 100, 20, Key{Hi: 4}, recs), p
}

func BenchmarkInsertDeleteChurn(b *testing.B) {
	tr, p := paperTree(b, 100_000)
	rng := rand.New(rand.NewSource(1))
	rec := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(100_000))*2 + 1 // odd keys: absent
		binary.LittleEndian.PutUint64(rec, k)
		tr.Insert(p, append([]byte(nil), rec...))
		tr.Delete(p, k)
	}
}

func BenchmarkGet(b *testing.B) {
	tr, p := paperTree(b, 100_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(p, uint64(rng.Intn(100_000))*2); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr, p := paperTree(b, 100_000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginOp()
		lo := uint64(rng.Intn(99_000)) * 2
		count := 0
		tr.ScanRange(p, lo, lo+198, func([]byte) bool { count++; return true })
		if count == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	recs := make([][]byte, 100_000)
	for i := range recs {
		r := make([]byte, 100)
		binary.LittleEndian.PutUint64(r, uint64(i))
		recs[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := metric.NewMeter(metric.DefaultCosts())
		p := storage.NewPager(storage.NewDisk(4000), m)
		p.SetCharging(false)
		BulkLoad(p, 100, 20, Key{Hi: 4}, recs)
	}
}
