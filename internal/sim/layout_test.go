package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/hashidx"
	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// layoutDigest fingerprints everything Build lays out: every page image by
// id, the free list in allocation order, the base relations' directories
// and the skey/p2 tracking columns, and each cache entry file — its state,
// and every record with the id of the page it lives on, in directory
// order. Rete's private memories are covered by the page images. The
// world is consumed: draining the free list allocates.
func layoutDigest(w *World) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	d := w.Disk()
	n := d.NumPages()
	pg := storage.NewPager(d, metric.NewMeter(w.costs))
	pg.SetCharging(false)

	// A scanned record is a sub-slice of its page image that runs to the
	// page's end, so the image's last byte names the page.
	pageOf := make(map[*byte]storage.PageID, n)
	for id := storage.PageID(0); int(id) < n; id++ {
		img := pg.Read(id)
		pageOf[&img[len(img)-1]] = id
		put(int64(id))
		h.Write(img)
	}
	rec := func(r []byte) bool {
		tail := r[:cap(r)]
		id, ok := pageOf[&tail[len(tail)-1]]
		if !ok {
			panic("sim: scanned record lies on no page image")
		}
		put(int64(id))
		h.Write(r)
		return true
	}

	put(int64(w.r1.Len()), int64(w.r1.Tree().Height()), int64(w.r1.Tree().LeafPages()))
	w.r1.Tree().ScanAll(pg, rec)
	for _, t := range []*hashidx.Table{w.r2.Hash(), w.r3.Hash()} {
		put(int64(t.Len()), int64(t.NumBuckets()), int64(t.Pages()))
		t.ScanAll(pg, rec)
	}
	put(w.skey...)
	put(w.p2...)

	if st := w.CacheStore(); st != nil {
		for _, id := range w.ProcIDs() {
			e := st.Entry(cache.ID(id))
			valid := int64(0)
			if e.Valid() {
				valid = 1
			}
			put(int64(id), valid, int64(e.ComputedAt()), int64(e.Pages()), int64(e.Len()))
			e.File().Scan(pg, func(k uint64, r []byte) bool {
				put(int64(k))
				return rec(r)
			})
		}
	}
	pg.BeginOp()

	// Drain the free list: the order pages come back in is the layout the
	// next split or overflow allocates from.
	for {
		id := d.Alloc()
		put(int64(id))
		if int(id) >= n {
			break
		}
	}
	return h.Sum64()
}

// TestBuildLayoutPinned pins what Build lays out, under every strategy in
// both models, to digests recorded before the loader wrote R1 straight
// into its leaves and the Rete prepare submitted borrowed scan records. A
// faster build must build the same world: same pages at the same ids, the
// same free list, the same directories and cache files.
func TestBuildLayoutPinned(t *testing.T) {
	want := map[string]uint64{
		"model 1/Always Recompute":     0xd6653b7ad0ac9e96,
		"model 1/Cache and Invalidate": 0x36c0c7cd5d191344,
		"model 1/Update Cache (AVM)":   0x36c0c7cd5d191344,
		"model 1/Update Cache (RVM)":   0xf87f31a0021235c4,
		"model 2/Always Recompute":     0xd6653b7ad0ac9e96,
		"model 2/Cache and Invalidate": 0x66ab60918b855654,
		"model 2/Update Cache (AVM)":   0x66ab60918b855654,
		"model 2/Update Cache (RVM)":   0xc645d00bf4857c3d,
	}
	for _, m := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
		for _, s := range costmodel.Strategies {
			name := fmt.Sprintf("%v/%v", m, s)
			got := layoutDigest(Build(testConfig(m, s)))
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%s: layout digest %#x, want %#x", name, got, w)
			}
		}
	}
}
