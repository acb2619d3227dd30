package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
)

// layoutDigest fingerprints everything Build lays out, in terms that do
// not depend on how many bytes a record occupies: every record a scan
// reaches — R1's leaves, R2's and R3's buckets, each cache entry file and
// each Rete memory — as the id of the page it lives on and its attribute
// values, in directory order, with each structure's shape (lengths,
// heights, page counts) and each entry's state; the skey/p2 tracking
// columns; every page no scan reaches (R1's internal nodes), by id and
// raw image; and the free list in allocation order. The world is consumed: draining the free list allocates.
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
	images := make([][]byte, n)
	pageOf := make(map[*byte]storage.PageID, n)
	for id := storage.PageID(0); int(id) < n; id++ {
		img := pg.Read(id)
		images[id] = img
		pageOf[&img[len(img)-1]] = id
	}
	reached := make([]bool, n)
	// rec digests a record of nf attributes: its page, then its values.
	rec := func(nf int) func(r []byte) bool {
		return func(r []byte) bool {
			tail := r[:cap(r)]
			id, ok := pageOf[&tail[len(tail)-1]]
			if !ok {
				panic("sim: scanned record lies on no page image")
			}
			reached[id] = true
			put(int64(id))
			for i := 0; i < nf; i++ {
				put(int64(binary.LittleEndian.Uint64(r[8*i:])))
			}
			return true
		}
	}
	keyed := func(nf int) func(k uint64, r []byte) bool {
		values := rec(nf)
		return func(k uint64, r []byte) bool {
			put(int64(k))
			return values(r)
		}
	}

	put(int64(w.r1.Len()), int64(w.r1.Tree().Height()), int64(w.r1.Tree().LeafPages()))
	w.r1.Tree().ScanAll(pg, rec(w.r1.Schema().NumFields()))
	for _, r := range []*relation.Relation{w.r2, w.r3} {
		t := r.Hash()
		put(int64(t.Len()), int64(t.NumBuckets()), int64(t.Pages()))
		t.ScanAll(pg, rec(r.Schema().NumFields()))
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
			e.File().Scan(pg, keyed(w.mgr.MustGet(id).Plan.Schema().NumFields()))
		}
	}
	if w.net != nil {
		for _, m := range w.net.Memories() {
			put(int64(m.Len()), int64(m.File().Pages()))
			m.File().Scan(pg, keyed(m.Schema().NumFields()))
		}
	}
	// B-tree internal nodes keep stride d and a whole page, so their
	// images are the same bytes however records are laid out.
	for id, img := range images {
		if !reached[id] {
			put(int64(id))
			h.Write(img)
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
// both models. A faster build must build the same world: same records on
// the same pages at the same ids, the same free list, the same
// directories, cache files and Rete memories. The digests were recorded
// on the padded layout (S-byte records in B-byte images) and hold
// unchanged for packed records, since layoutDigest reads page ids and
// attribute values wherever a page holds records.
func TestBuildLayoutPinned(t *testing.T) {
	want := map[string]uint64{
		"model 1/Always Recompute":     0xed7db42855f2782b,
		"model 1/Cache and Invalidate": 0xeb0898def29c4ee2,
		"model 1/Update Cache (AVM)":   0xeb0898def29c4ee2,
		"model 1/Update Cache (RVM)":   0x72f3821f8370e11d,
		"model 2/Always Recompute":     0xed7db42855f2782b,
		"model 2/Cache and Invalidate": 0xfc881e698a01854e,
		"model 2/Update Cache (AVM)":   0xfc881e698a01854e,
		"model 2/Update Cache (RVM)":   0x4f80dd7e2ff272a1,
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
