package proc

import (
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

func p1Def(w *dbtest.World, id int, lo, hi int64) *Definition {
	return NewDefinition(id, "p1", query.NewBTreeRangeScan(w.R1, lo, hi), "skey", "tid")
}

func p2Def(w *dbtest.World, id int, lo, hi int64) *Definition {
	j := query.NewHashJoinProbe(query.NewBTreeRangeScan(w.R1, lo, hi), w.R2, "a", 80)
	plan := &query.Filter{Child: j, Pred: query.Compare{Field: "r2_p2", Op: query.Lt, Value: 5}}
	return NewDefinition(id, "p2", plan, "skey", "tid")
}

// moveTuple is one update transaction: it rewrites R1 tuple tid to a new
// skey (uncharged, as the model excludes base-table cost) and hands the
// delta to s, inside one update epoch.
func moveTuple(t *testing.T, w *dbtest.World, s Strategy, tid, oldSkey, newSkey int64) {
	t.Helper()
	w.Update(func() {
		prev := w.Pager.SetCharging(false)
		old, ok := w.R1.Tree().Get(w.Pager, tuple.ClusterKey(oldSkey, tid))
		if !ok {
			t.Fatalf("tuple %d at skey %d missing", tid, oldSkey)
		}
		newTup := append([]byte(nil), old...)
		w.R1.Schema().SetByName(newTup, "skey", newSkey)
		w.R1.DeleteKeyed(w.Pager, tuple.ClusterKey(oldSkey, tid))
		w.R1.Insert(w.Pager, newTup)
		w.Pager.BeginOp()
		w.Pager.SetCharging(prev)
		s.OnUpdate(w.Pager, Delta{Rel: w.R1, Inserted: [][]byte{newTup}, Deleted: [][]byte{old}})
	})
}

// access is one procedure access, as one read operation.
func access(w *dbtest.World, s Strategy, id int) (out [][]byte) {
	w.Read(func() { out = s.Access(w.Pager, id) })
	return out
}

// accessPanicsOutsideScope: a strategy that decides cache visibility must
// refuse a pager reading at no snapshot rather than judge at stamp 0.
func accessPanicsOutsideScope(t *testing.T, w *dbtest.World, s Strategy) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: Access outside a read scope did not panic", s.Name())
		}
	}()
	w.Pager.BeginOp()
	s.Access(w.Pager, 1)
}

func TestManagerRegistry(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	d := p1Def(w, 1, 0, 9)
	m.Define(d)
	if m.Get(1) != d || m.MustGet(1) != d || m.Get(2) != nil {
		t.Fatal("lookup wrong")
	}
	if m.Len() != 1 || len(m.IDs()) != 1 {
		t.Fatal("sizes wrong")
	}
	for name, fn := range map[string]func(){
		"redefine":     func() { m.Define(d) },
		"MustGet miss": func() { m.MustGet(9) },
		"nil plan":     func() { NewDefinition(3, "x", nil, "a", "b") },
		"bad field":    func() { NewDefinition(3, "x", query.NewBTreeRangeScan(w.R1, 0, 1), "zzz", "tid") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestResultKeyOrdersResults(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	d := p1Def(w, 1, 0, 9)
	tup := w.R1Tuple(7, 3, 0)
	if got := d.ResultKey(tup); got != tuple.ClusterKey(3, 7) {
		t.Fatalf("ResultKey = %d", got)
	}
	if d.ResultWidth() != 64 {
		t.Fatalf("ResultWidth = %d", d.ResultWidth())
	}
}

func TestAlwaysRecompute(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 1, 10, 19))
	s := NewAlwaysRecompute(m)
	s.Prepare(w.Pager)
	if s.Name() != "Always Recompute" {
		t.Fatal("name wrong")
	}
	w.Meter.Reset()
	out := access(w, s, 1)
	if len(out) != 10 {
		t.Fatalf("Access returned %d tuples, want 10", len(out))
	}
	cost1 := w.Meter.Milliseconds()
	if cost1 == 0 {
		t.Fatal("recompute charged nothing")
	}
	// Updates are free, and every access costs the same.
	moveTuple(t, w, s, 15, 15, 99)
	w.Meter.Reset()
	out = access(w, s, 1)
	if len(out) != 9 {
		t.Fatalf("after move-out, Access returned %d, want 9", len(out))
	}
}

func TestCacheInvalidateLifecycle(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 1, 10, 19))
	m.Define(p2Def(w, 2, 50, 69))
	store := cache.NewStore(w.Pager.Disk())
	s := NewCacheInvalidate(m, store)
	w.Pager.SetCharging(false)
	s.Prepare(w.Pager)
	w.Pager.BeginOp()
	w.Pager.SetCharging(true)

	// Warm access: exactly the result pages are read (T2), nothing else.
	w.Meter.Reset()
	out := access(w, s, 1)
	if len(out) != 10 {
		t.Fatalf("Access returned %d, want 10", len(out))
	}
	c := w.Meter.Snapshot()
	wantReads := int64(store.MustEntry(1).Pages())
	if c.PageReads != wantReads || c.PageWrites != 0 || c.Screens != 0 {
		t.Fatalf("warm access charged %v, want %d reads only", c, wantReads)
	}

	// An in-band update invalidates procedure 1 only.
	w.Meter.Reset()
	moveTuple(t, w, s, 12, 12, 99)
	if got := w.Meter.Snapshot().Invalidations; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if store.MustEntry(1).Valid() {
		t.Fatal("entry 1 still valid")
	}
	if !store.MustEntry(2).Valid() {
		t.Fatal("entry 2 spuriously invalidated")
	}

	// Cold access: recompute (plan screens + scan I/O) plus write-back.
	w.Meter.Reset()
	out = access(w, s, 1)
	if len(out) != 9 {
		t.Fatalf("cold access returned %d, want 9", len(out))
	}
	c = w.Meter.Snapshot()
	if c.Screens == 0 || c.PageWrites == 0 {
		t.Fatalf("cold access should recompute and refresh, charged %v", c)
	}
	if !store.MustEntry(1).Valid() {
		t.Fatal("entry 1 not revalidated")
	}
	accessPanicsOutsideScope(t, w, s)
}

func TestCacheInvalidateFalseInvalidation(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p2Def(w, 2, 50, 69))
	store := cache.NewStore(w.Pager.Disk())
	s := NewCacheInvalidate(m, store)
	w.Pager.SetCharging(false)
	s.Prepare(w.Pager)
	w.Pager.BeginOp()
	w.Pager.SetCharging(true)
	before := access(w, s, 2)

	// tid 115 -> skey 56: enters the C_f band but fails C_f2 (p2 = 5), so
	// the result does not change — yet the i-lock on the band breaks: a
	// false invalidation.
	moveTuple(t, w, s, 115, 115, 56)
	if store.MustEntry(2).Valid() {
		t.Fatal("false invalidation did not mark the entry invalid")
	}
	after := access(w, s, 2)
	if len(after) != len(before) {
		t.Fatalf("result changed from %d to %d tuples; should be identical", len(before), len(after))
	}
}

func TestCacheInvalidateKeyLocksCoverJoinReads(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p2Def(w, 2, 50, 69))
	store := cache.NewStore(w.Pager.Disk())
	s := NewCacheInvalidate(m, store)
	w.Pager.SetCharging(false)
	s.Prepare(w.Pager)
	w.Pager.SetCharging(true)
	// The plan probed R2 keys a = 10..29 (20 distinct) and scanned one R1
	// band: 21 locks.
	if got := s.Locks().HoldCount(2); got != 21 {
		t.Fatalf("HoldCount = %d, want 21 (1 range + 20 distinct keys)", got)
	}
}

// stubMaint counts maintainer calls.
type stubMaint struct {
	prepared int
	applied  int
}

func (s *stubMaint) Name() string           { return "stub" }
func (s *stubMaint) Prepare(*storage.Pager) { s.prepared++ }
func (s *stubMaint) Apply(_ *storage.Pager, _ *relation.Relation, ins, del [][]byte) {
	s.applied += len(ins) + len(del)
}

func TestUpdateCacheDelegates(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	d := p1Def(w, 1, 10, 19)
	m.Define(d)
	store := cache.NewStore(w.Pager.Disk())
	entry := store.Define(1, d.ResultWidth())
	keys, recs := query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: w.Meter, Pager: w.Pager})
	entry.ReplaceAt(w.Pager, keys, recs, w.Pager.Disk().CommitStamp())
	entry.MarkValid(w.Pager)

	stub := &stubMaint{}
	s := NewUpdateCache(m, store, stub)
	s.Prepare(w.Pager)
	if stub.prepared != 1 {
		t.Fatal("Prepare not delegated")
	}
	if s.Name() != "Update Cache (stub)" {
		t.Fatalf("Name = %q", s.Name())
	}
	w.Pager.BeginOp()
	w.Meter.Reset()
	out := s.Access(w.Pager, 1)
	if len(out) != 10 {
		t.Fatalf("Access returned %d", len(out))
	}
	// Pure cached read.
	c := w.Meter.Snapshot()
	if c.Screens != 0 || c.PageWrites != 0 {
		t.Fatalf("cached access charged %v", c)
	}
	s.OnUpdate(w.Pager, Delta{Rel: w.R1, Inserted: [][]byte{w.R1Tuple(1, 2, 3)}, Deleted: [][]byte{w.R1Tuple(1, 5, 3)}})
	if stub.applied != 2 {
		t.Fatalf("Apply saw %d tuples, want 2", stub.applied)
	}
}
