package sim

import (
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/workload"
)

// imageShapes are the three world shapes the served benchmark opens
// (hot-read, recompute-scan, update-heavy): the paper's defaults with
// uniform access and the shape's strategy, model, K and Q, and for
// recompute-scan 200 join procedures at f = 0.01.
func imageShapes() map[string]Config {
	shape := func(s costmodel.Strategy, m costmodel.Model, k, q, f float64, onlyJoins bool) Config {
		p := costmodel.Default()
		p.K, p.Q, p.Z = k, q, 0.5
		if f != 0 {
			p.F = f
		}
		if onlyJoins {
			p.N1, p.N2 = 0, 200
		}
		return Config{Params: p, Model: m, Strategy: s, Seed: 1}
	}
	return map[string]Config{
		"hot-read":       shape(costmodel.UpdateCacheAVM, costmodel.Model1, 4_000, 500_000, 0, false),
		"recompute-scan": shape(costmodel.AlwaysRecompute, costmodel.Model2, 4_000, 26_000, 0.01, true),
		"update-heavy":   shape(costmodel.UpdateCacheRVM, costmodel.Model1, 35_000, 35_000, 0, false),
	}
}

// imageOps is the op prefix TestWorldImageBytes runs after Build.
const imageOps = 400

// TestWorldImageBytes is the bytes bound on a world's page images. Pages
// hold packed attributes at the paper's blocking factors, so each shape's
// page count and image bytes are pinned exactly after Build and after a
// fixed op prefix (an image padded back out to S-byte records or B-byte
// pages moves the total), and every image is checked against its owner:
// a page holding records of a relation or a cache entry is exactly
// perPage × recSize, perPage being ⌊B/S⌋ of the owner's schema. The pages
// no scan reaches are B-tree internal nodes, a whole page at stride d, or
// Rete's private memories, whose schemas are R1's and R2's, so their
// images are one of the sizes the scans saw.
func TestWorldImageBytes(t *testing.T) {
	type pin struct{ pages, bytes int64 }
	want := map[string][2]pin{
		"hot-read":       {{3414, 3_448_000}, {3580, 3_643_840}},
		"recompute-scan": {{3014, 2_936_000}, {3900, 3_823_040}},
		"update-heavy":   {{7390, 8_441_280}, {9075, 10_095_360}},
	}
	for name, cfg := range imageShapes() {
		t.Run(name, func(t *testing.T) {
			w := Build(cfg)
			check := func(when string, want pin) {
				t.Helper()
				pages, bytes := w.Disk().ImageStats()
				if got := (pin{int64(pages), bytes}); got != want {
					t.Errorf("%s: %d pages, %d image bytes; want %d and %d", when, got.pages, got.bytes, want.pages, want.bytes)
				}
				checkImageOwners(t, w, when)
			}
			check("after Build", want[name][0])
			s := w.Stream()
			updates := 0
			for i := 0; i < imageOps; i++ {
				op := s.At(i)
				if op.Kind == workload.Update {
					updates++
				}
				w.ExecOp(op)
			}
			if updates == 0 {
				t.Fatalf("the %d-op prefix holds no update", imageOps)
			}
			check("after the op prefix", want[name][1])
		})
	}
}

// checkImageOwners checks every page image's length against its owner.
func checkImageOwners(t *testing.T, w *World, when string) {
	t.Helper()
	d := w.Disk()
	pageSize := d.PageSize()
	pg := storage.NewPager(d, metric.NewMeter(w.costs))
	pg.SetCharging(false)
	defer pg.BeginOp()

	n := d.NumPages()
	pageOf := make(map[*byte]storage.PageID, n)
	length := make([]int, n)
	for id := storage.PageID(0); int(id) < n; id++ {
		img := pg.Read(id)
		pageOf[&img[len(img)-1]] = id
		length[id] = len(img)
	}
	owned := make(map[storage.PageID]bool)
	seen := map[int]bool{pageSize: true}
	// own returns a record visitor that checks the record's page is
	// exactly perPage records of recSize bytes.
	own := func(what string, perPage, recSize int) func([]byte) bool {
		want := perPage * recSize
		seen[want] = true
		return func(r []byte) bool {
			tail := r[:cap(r)]
			id, ok := pageOf[&tail[len(tail)-1]]
			if !ok {
				t.Fatalf("%s: a %s record lies on no page image", when, what)
			}
			if len(r) != recSize || length[id] != want {
				t.Fatalf("%s: %s page %d holds %d-byte records in a %d-byte image, want %d and %d",
					when, what, id, len(r), length[id], recSize, want)
			}
			owned[id] = true
			return true
		}
	}
	s1 := w.r1.Schema()
	if got := w.r1.Tree().LeafCapacity(); got != s1.PerPage(pageSize) || got != pageSize/int(w.cfg.Params.S) {
		t.Fatalf("R1 leaf capacity %d, want ⌊B/S⌋ = %d", got, pageSize/int(w.cfg.Params.S))
	}
	w.r1.Tree().ScanAll(pg, own("r1", s1.PerPage(pageSize), s1.Size()))
	for _, r := range []*relation.Relation{w.r2, w.r3} {
		s := r.Schema()
		if got := r.Hash().PerPage(); got != s.PerPage(pageSize) {
			t.Fatalf("%s bucket holds %d records, want ⌊B/S⌋ = %d", s.Name(), got, s.PerPage(pageSize))
		}
		r.Hash().ScanAll(pg, own(s.Name(), s.PerPage(pageSize), s.Size()))
	}
	if st := w.CacheStore(); st != nil {
		for _, id := range w.ProcIDs() {
			s := w.mgr.MustGet(id).Plan.Schema()
			visit := own("cache entry", s.PerPage(pageSize), s.Size())
			st.Entry(cache.ID(id)).File().Scan(pg, func(_ uint64, r []byte) bool { return visit(r) })
		}
	}
	for id, l := range length {
		if !owned[storage.PageID(id)] && !seen[l] {
			t.Fatalf("%s: page %d holds no scanned record and has a %d-byte image, none of %v", when, id, l, seen)
		}
	}
}
