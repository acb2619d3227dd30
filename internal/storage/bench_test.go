package storage

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"dbproc/internal/metric"
)

func benchPager(pageSize int) *Pager {
	return NewPager(NewDisk(pageSize), metric.NewMeter(metric.DefaultCosts()))
}

func BenchmarkPagerReadWarm(b *testing.B) {
	p := benchPager(4000)
	id := p.Disk().Alloc()
	p.Read(id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Read(id)
	}
}

func BenchmarkPagerReadCold(b *testing.B) {
	p := benchPager(4000)
	id := p.Disk().Alloc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginOp()
		p.Read(id)
	}
}

func BenchmarkOrderedFileChurn(b *testing.B) {
	p := benchPager(4000)
	f := NewOrderedFile(p.Disk(), 100)
	rec := make([]byte, 100)
	for i := uint64(0); i < 1000; i++ {
		binary.LittleEndian.PutUint64(rec, i)
		f.Insert(p, i*2, append([]byte(nil), rec...))
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1000))*2 + 1
		f.Insert(p, k, rec)
		f.Delete(p, k)
	}
}

func BenchmarkOrderedFileScan(b *testing.B) {
	p := benchPager(4000)
	f := NewOrderedFile(p.Disk(), 100)
	rec := make([]byte, 100)
	for i := uint64(0); i < 1000; i++ {
		f.Insert(p, i, rec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginOp()
		n := 0
		f.Scan(p, func(uint64, []byte) bool { n++; return true })
		if n != 1000 {
			b.Fatal("short scan")
		}
	}
}
