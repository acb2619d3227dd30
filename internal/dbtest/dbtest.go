// Package dbtest builds small deterministic databases shaped like the
// paper's R1/R2/R3 for tests of the query, maintenance and procedure
// layers. Production setup lives in package sim; this is a miniature with
// tiny pages so page-level effects appear at test scale.
package dbtest

import (
	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// World is a small three-relation database.
//
// R1 (B-tree clustered on skey): tid, skey, a — skey = tid, a = tid % |R2|.
// R2 (hash on b): tid, b, c, p2 — b unique = tid, c = tid % |R3|, p2 = tid % 10.
// R3 (hash on d): tid, d — d unique = tid.
//
// So every R1 tuple joins exactly one R2 tuple (R1.a = R2.b) and every R2
// tuple joins exactly one R3 tuple (R2.c = R3.d), as the paper's model
// assumes.
type World struct {
	Meter *metric.Meter
	Pager *storage.Pager
	Cat   *relation.Catalog
	R1    *relation.Relation
	R2    *relation.Relation
	R3    *relation.Relation

	NextTID int64 // next unused R1 tuple id
}

// Config sizes the world.
type Config struct {
	PageSize   int // bytes per page (default 256)
	TupleWidth int // bytes per tuple (default 64)
	N1         int // R1 tuples (default 200)
	N2         int // R2 tuples (default 40)
	N3         int // R3 tuples (default 20)
}

func (c *Config) fill() {
	if c.PageSize == 0 {
		c.PageSize = 256
	}
	if c.TupleWidth == 0 {
		c.TupleWidth = 64
	}
	if c.N1 == 0 {
		c.N1 = 200
	}
	if c.N2 == 0 {
		c.N2 = 40
	}
	if c.N3 == 0 {
		c.N3 = 20
	}
}

// R1Schema returns the schema used for R1 at the given width.
func R1Schema(width int) *tuple.Schema {
	return tuple.NewSchema("r1", width,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "skey"}, tuple.Field{Name: "a"})
}

// R2Schema returns the schema used for R2 at the given width.
func R2Schema(width int) *tuple.Schema {
	return tuple.NewSchema("r2", width,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "b"},
		tuple.Field{Name: "c"}, tuple.Field{Name: "p2"})
}

// R3Schema returns the schema used for R3 at the given width.
func R3Schema(width int) *tuple.Schema {
	return tuple.NewSchema("r3", width,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "d"})
}

// NewWorld builds and loads the world. Loading is uncharged; the meter is
// zero and charging enabled on return.
func NewWorld(cfg Config) *World {
	cfg.fill()
	m := metric.NewMeter(metric.DefaultCosts())
	pager := storage.NewPager(storage.NewDisk(cfg.PageSize), m)
	pager.SetCharging(false)

	s1 := R1Schema(cfg.TupleWidth)
	tuples := make([][]byte, cfg.N1)
	for i := range tuples {
		t := s1.New()
		s1.SetByName(t, "tid", int64(i))
		s1.SetByName(t, "skey", int64(i))
		s1.SetByName(t, "a", int64(i%cfg.N2))
		tuples[i] = t
	}
	r1 := relation.BulkLoadBTree(pager, s1, "skey", "tid", 16, tuples)

	s2 := R2Schema(cfg.TupleWidth)
	perPage := cfg.PageSize / cfg.TupleWidth
	buckets := (cfg.N2 + perPage - 1) / perPage
	r2 := relation.NewHash(pager.Disk(), s2, "b", buckets)
	for j := 0; j < cfg.N2; j++ {
		t := s2.New()
		s2.SetByName(t, "tid", int64(j))
		s2.SetByName(t, "b", int64(j))
		s2.SetByName(t, "c", int64(j%cfg.N3))
		s2.SetByName(t, "p2", int64(j%10))
		r2.Insert(pager, t)
	}

	s3 := R3Schema(cfg.TupleWidth)
	buckets3 := (cfg.N3 + perPage - 1) / perPage
	r3 := relation.NewHash(pager.Disk(), s3, "d", buckets3)
	for j := 0; j < cfg.N3; j++ {
		t := s3.New()
		s3.SetByName(t, "tid", int64(j))
		s3.SetByName(t, "d", int64(j))
		r3.Insert(pager, t)
	}

	cat := relation.NewCatalog()
	cat.Define(r1)
	cat.Define(r2)
	cat.Define(r3)

	pager.BeginOp()
	pager.SetCharging(true)
	m.Reset()
	return &World{Meter: m, Pager: pager, Cat: cat, R1: r1, R2: r2, R3: r3, NextTID: int64(cfg.N1)}
}

// Read runs fn as one read operation on the world's pager: a fresh frame
// scope at a snapshot of the newest commit, flushed and closed when fn
// returns or panics.
func (w *World) Read(fn func()) {
	w.Pager.OpenScope(false)
	defer w.Pager.CloseScope(0)
	w.Pager.BeginOp()
	fn()
	w.Pager.Flush()
}

// Update runs fn as one update on the world's pager: a fresh frame scope
// inside the update epoch, published at the next commit stamp when fn
// returns or panics.
func (w *World) Update(fn func()) {
	w.Pager.OpenScope(true)
	defer func() { w.Pager.CloseScope(w.Pager.Disk().CommitStamp() + 1) }()
	w.Pager.BeginOp()
	fn()
}

// R1Tuple builds (but does not insert) an R1 tuple.
func (w *World) R1Tuple(tid, skey, a int64) []byte {
	s := w.R1.Schema()
	t := s.New()
	s.SetByName(t, "tid", tid)
	s.SetByName(t, "skey", skey)
	s.SetByName(t, "a", a)
	return t
}
