package hashidx

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// paperTable builds R2's geometry: 10,000 100-byte records, 250 buckets.
func paperTable(b *testing.B) (*Table, *storage.Pager) {
	b.Helper()
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(4000), m)
	p.SetCharging(false)
	t := New(p.Disk(), 100, 250, 0)
	rec := make([]byte, 100)
	for i := uint64(0); i < 10_000; i++ {
		binary.LittleEndian.PutUint64(rec, i)
		t.Insert(p, append([]byte(nil), rec...))
	}
	return t, p
}

func BenchmarkLookup(b *testing.B) {
	t, p := paperTable(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(p, uint64(rng.Intn(10_000))); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	t, p := paperTable(b)
	rec := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(10_000 + i)
		binary.LittleEndian.PutUint64(rec, k)
		t.Insert(p, append([]byte(nil), rec...))
		t.Delete(p, k)
	}
}

func BenchmarkProbeBatch(b *testing.B) {
	t, p := paperTable(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginOp()
		for j := 0; j < 100; j++ { // a P2 procedure's fN probes
			t.Lookup(p, uint64(rng.Intn(10_000)))
		}
	}
}

// BenchmarkLookupEach and BenchmarkLookupBatch probe the same random keys,
// one at a time and BatchLen at a time; ns/op is per key in both.
func BenchmarkLookupEach(b *testing.B) {
	t, p := paperTable(b)
	keys := randomKeys(1 << 16)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupEach(p, keys[i%len(keys)], func([]byte) bool { n++; return true })
	}
	if n != b.N {
		b.Fatalf("%d matches for %d keys", n, b.N)
	}
}

func BenchmarkLookupBatch(b *testing.B) {
	t, p := paperTable(b)
	keys := randomKeys(1 << 16)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i += BatchLen {
		at := i % len(keys)
		t.LookupBatch(p, keys[at:at+min(BatchLen, b.N-i)], func(int, []byte) bool { n++; return true })
	}
	if n != b.N {
		b.Fatalf("%d matches for %d keys", n, b.N)
	}
}

func randomKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(10_000))
	}
	return keys
}
