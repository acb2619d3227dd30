package avm

import (
	"bytes"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
	"dbproc/internal/dbtest/aliastest"
	"dbproc/internal/ilock"
	"dbproc/internal/query"
	"dbproc/internal/tuple"
)

// fixture wires an engine over the dbtest world with one P1-style view
// (skey band [20, 39]) and one P2-style view (skey band [50, 69] joined to
// R2 with p2 < 5).
type fixture struct {
	w      *dbtest.World
	eng    *Engine
	store  *cache.Store
	p1, p2 *View
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixtureOver(t, func(p query.Plan) query.Plan { return p })
}

// newFixtureOver builds the fixture with every plan the engine executes,
// full and delta, passed through wrap.
func newFixtureOver(t *testing.T, wrap func(query.Plan) query.Plan) *fixture {
	t.Helper()
	w := dbtest.NewWorld(dbtest.Config{})
	store := cache.NewStore(w.Pager.Disk())
	router := ilock.NewManager()
	eng := NewEngine(store, router)

	s1 := w.R1.Schema()
	key1 := func(tup []byte) uint64 {
		return tuple.ClusterKey(s1.GetByName(tup, "skey"), s1.GetByName(tup, "tid"))
	}
	p1 := &View{
		ID:       1,
		FullPlan: wrap(query.NewBTreeRangeScan(w.R1, 20, 39)),
		Key:      key1,
		Sources: []Source{{
			Rel:  w.R1,
			Attr: "skey",
			Band: [2]int64{20, 39},
			// Rule indexing already restricted the deltas to the band,
			// which is the whole P1 predicate: no further work (the
			// paper's "no extra cost" for P1 changes).
			DeltaPlan: func(vs *query.ValuesScan) query.Plan { return wrap(vs) },
		}},
	}
	store.Define(1, s1.Size(), s1.PerPage(w.Pager.Disk().PageSize()))
	eng.Register(p1)

	// The maintenance join re-applies C_f2 with an uncharged Refine; the
	// full plan uses a charged Filter as in user query processing.
	mkJoin := func(child query.Plan, charged bool) query.Plan {
		j := query.NewHashJoinProbe(child, w.R2, "a", 80)
		pred := query.Compare{Field: "r2_p2", Op: query.Lt, Value: 5}
		if charged {
			return &query.Filter{Child: j, Pred: pred}
		}
		return &query.Refine{Child: j, Pred: pred}
	}
	joinSchema := mkJoin(query.NewBTreeRangeScan(w.R1, 50, 69), true).Schema()
	key2 := func(tup []byte) uint64 {
		return tuple.ClusterKey(joinSchema.GetByName(tup, "skey"), joinSchema.GetByName(tup, "tid"))
	}
	p2 := &View{
		ID:       2,
		FullPlan: wrap(mkJoin(query.NewBTreeRangeScan(w.R1, 50, 69), true)),
		Key:      key2,
		Sources: []Source{
			{
				Rel:  w.R1,
				Attr: "skey",
				Band: [2]int64{50, 69},
				DeltaPlan: func(vs *query.ValuesScan) query.Plan {
					return wrap(mkJoin(vs, false))
				},
			},
			{
				Rel:  w.R2,
				Attr: "p2",
				Band: [2]int64{0, 4},
				// An R2 delta joins back to the band's R1 tuples via a
				// nested-loop over the band scan (R1 has no index on a).
				DeltaPlan: func(vs *query.ValuesScan) query.Plan {
					refined := &query.Refine{Child: wrap(vs), Pred: query.Range{Field: "p2", Lo: 0, Hi: 4}}
					return wrap(query.NewNestedLoopJoin(
						query.NewBTreeRangeScan(w.R1, 50, 69), wrap(refined), "a", "b", "r2_", 80))
				},
			},
		},
	}
	store.Define(2, joinSchema.Size(), joinSchema.PerPage(w.Pager.Disk().PageSize()))
	eng.Register(p2)

	w.Pager.SetCharging(false)
	eng.Prepare(w.Pager)
	w.Pager.BeginOp()
	w.Pager.SetCharging(true)
	w.Meter.Reset()
	return &fixture{w: w, eng: eng, store: store, p1: p1, p2: p2}
}

// recompute returns the view's from-scratch value as a key->tuple map.
func (f *fixture) recompute(v *View) map[uint64][]byte {
	prev := f.w.Pager.SetCharging(false)
	defer f.w.Pager.SetCharging(prev)
	out := map[uint64][]byte{}
	v.FullPlan.Execute(&query.Ctx{Meter: f.w.Meter, Pager: f.w.Pager}, func(tup []byte) bool {
		out[v.Key(tup)] = bytes.Clone(tup) // emitted tuples are borrowed
		return true
	})
	return out
}

// assertConsistent checks a view's stored contents equal a recompute.
func (f *fixture) assertConsistent(t *testing.T, v *View) {
	t.Helper()
	want := f.recompute(v)
	prev := f.w.Pager.SetCharging(false)
	defer f.w.Pager.SetCharging(prev)
	got := 0
	f.store.MustEntry(cache.ID(v.ID)).ReadAll(f.w.Pager, func(k uint64, rec []byte) bool {
		wantRec, ok := want[k]
		if !ok {
			t.Errorf("view %d holds unexpected key %d", v.ID, k)
			return true
		}
		for i := range rec {
			if rec[i] != wantRec[i] {
				t.Errorf("view %d key %d contents differ", v.ID, k)
				break
			}
		}
		got++
		return true
	})
	if got != len(want) {
		t.Errorf("view %d holds %d tuples, recompute has %d", v.ID, got, len(want))
	}
}

// applyUpdate moves R1 tuple tid to a new skey (delete + reinsert in the
// base relation) and feeds the delta to the engine.
func (f *fixture) applyUpdate(t *testing.T, moves [][3]int64) {
	t.Helper()
	w := f.w
	s1 := w.R1.Schema()
	var del, ins [][]byte
	prev := w.Pager.SetCharging(false)
	for _, mv := range moves {
		tid, oldSkey, newSkey := mv[0], mv[1], mv[2]
		old, ok := w.R1.Tree().Get(w.Pager, tuple.ClusterKey(oldSkey, tid))
		if !ok {
			t.Fatalf("tuple %d at skey %d missing", tid, oldSkey)
		}
		newTup := append([]byte(nil), old...)
		s1.SetByName(newTup, "skey", newSkey)
		w.R1.DeleteKeyed(w.Pager, tuple.ClusterKey(oldSkey, tid))
		w.R1.Insert(w.Pager, newTup)
		del = append(del, old)
		ins = append(ins, newTup)
	}
	w.Pager.BeginOp()
	w.Pager.SetCharging(prev)
	f.eng.Apply(w.Pager, w.R1, ins, del)
	w.Pager.BeginOp()
}

func TestPrepareFillsViews(t *testing.T) {
	f := newFixture(t)
	e1 := f.store.MustEntry(1)
	if !e1.Valid() || e1.Len() != 20 {
		t.Fatalf("P1 view: valid=%v len=%d, want 20 tuples", e1.Valid(), e1.Len())
	}
	// skey 50..69 join p2<5: a=tid%40 in 50..69 -> a in 10..29; p2 = a%10
	// < 5 keeps a%10 in 0..4: half of them = 10 tuples.
	e2 := f.store.MustEntry(2)
	if !e2.Valid() || e2.Len() != 10 {
		t.Fatalf("P2 view: valid=%v len=%d, want 10 tuples", e2.Valid(), e2.Len())
	}
	if f.eng.NumViews() != 2 || f.eng.Lookup(1) != f.p1 || f.eng.Lookup(3) != nil {
		t.Fatal("registry wrong")
	}
}

func TestMoveIntoAndOutOfP1Band(t *testing.T) {
	f := newFixture(t)
	// Move tid 5 (skey 5, outside) into the band, and tid 25 out of it.
	f.applyUpdate(t, [][3]int64{{5, 5, 30}, {25, 25, 99}})
	f.assertConsistent(t, f.p1)
	f.assertConsistent(t, f.p2)
	e1 := f.store.MustEntry(1)
	if e1.Len() != 20 { // one in, one out
		t.Fatalf("P1 view len = %d, want 20", e1.Len())
	}
	if !e1.File().Contains(tuple.ClusterKey(30, 5)) {
		t.Fatal("moved-in tuple missing")
	}
	if e1.File().Contains(tuple.ClusterKey(25, 25)) {
		t.Fatal("moved-out tuple still present")
	}
}

func TestMoveWithinBandUpdatesKey(t *testing.T) {
	f := newFixture(t)
	f.applyUpdate(t, [][3]int64{{22, 22, 35}})
	f.assertConsistent(t, f.p1)
	e1 := f.store.MustEntry(1)
	if e1.File().Contains(tuple.ClusterKey(22, 22)) || !e1.File().Contains(tuple.ClusterKey(35, 22)) {
		t.Fatal("within-band move mishandled")
	}
}

func TestP2JoinFilterRespected(t *testing.T) {
	f := newFixture(t)
	// tid 110: a = 110%40 = 30, p2 = 30%10 = 0 < 5 -> joins and passes.
	f.applyUpdate(t, [][3]int64{{110, 110, 55}})
	f.assertConsistent(t, f.p2)
	if !f.store.MustEntry(2).File().Contains(tuple.ClusterKey(55, 110)) {
		t.Fatal("qualifying join tuple missing from P2 view")
	}
	// tid 115: a = 35, p2 = 5, fails C_f2 -> enters band but not the view.
	f.applyUpdate(t, [][3]int64{{115, 115, 56}})
	f.assertConsistent(t, f.p2)
	if f.store.MustEntry(2).File().Contains(tuple.ClusterKey(56, 115)) {
		t.Fatal("non-qualifying tuple leaked into P2 view")
	}
}

func TestIrrelevantUpdateIsFree(t *testing.T) {
	f := newFixture(t)
	f.w.Meter.Reset()
	// Move far outside both bands: no screening, no I/O, no delta ops.
	f.applyUpdate(t, [][3]int64{{150, 150, 160}})
	if ms := f.w.Meter.Milliseconds(); ms != 0 {
		t.Fatalf("irrelevant update cost %v ms (%v)", ms, f.w.Meter.Snapshot())
	}
	f.assertConsistent(t, f.p1)
	f.assertConsistent(t, f.p2)
}

func TestScreeningAndDeltaCharges(t *testing.T) {
	f := newFixture(t)
	f.w.Meter.Reset()
	// One move fully inside the P1 band: old and new values both conflict
	// with view 1 only -> 2 screens, 2 delta ops.
	f.applyUpdate(t, [][3]int64{{21, 21, 38}})
	c := f.w.Meter.Snapshot()
	if c.Screens != 2 || c.DeltaOps != 2 {
		t.Fatalf("screens=%d deltaOps=%d, want 2 and 2", c.Screens, c.DeltaOps)
	}
	// Refresh touched the view file: at least one read and one write.
	if c.PageReads < 1 || c.PageWrites < 1 {
		t.Fatalf("refresh I/O missing: %v", c)
	}
}

func TestP2UpdateChargesJoinReads(t *testing.T) {
	f := newFixture(t)
	f.w.Meter.Reset()
	f.applyUpdate(t, [][3]int64{{110, 110, 55}})
	c := f.w.Meter.Snapshot()
	// The delta plan probes R2 for the inserted (and band-matching deleted)
	// values: at least one page read beyond the view refresh.
	if c.PageReads < 2 {
		t.Fatalf("expected join probe reads, got %v", c)
	}
}

func TestRegisterValidation(t *testing.T) {
	f := newFixture(t)
	identity := func(vs *query.ValuesScan) query.Plan { return vs }
	src := func(mutate func(*Source)) []Source {
		s := Source{Rel: f.w.R1, Attr: "skey", Band: [2]int64{0, 9}, DeltaPlan: identity}
		if mutate != nil {
			mutate(&s)
		}
		return []Source{s}
	}
	for name, v := range map[string]*View{
		"duplicate id": {ID: 1, FullPlan: f.p1.FullPlan, Key: f.p1.Key, Sources: src(nil)},
		"nil plan":     {ID: 9, Key: f.p1.Key, Sources: src(nil)},
		"nil key":      {ID: 9, FullPlan: f.p1.FullPlan, Sources: src(nil)},
		"no sources":   {ID: 9, FullPlan: f.p1.FullPlan, Key: f.p1.Key},
		"nil rel":      {ID: 9, FullPlan: f.p1.FullPlan, Key: f.p1.Key, Sources: src(func(s *Source) { s.Rel = nil })},
		"nil delta":    {ID: 9, FullPlan: f.p1.FullPlan, Key: f.p1.Key, Sources: src(func(s *Source) { s.DeltaPlan = nil })},
		"bad attr":     {ID: 9, FullPlan: f.p1.FullPlan, Key: f.p1.Key, Sources: src(func(s *Source) { s.Attr = "zzz" })},
		"dup rel": {ID: 9, FullPlan: f.p1.FullPlan, Key: f.p1.Key,
			Sources: append(src(nil), src(nil)...)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f.eng.Register(v)
		}()
	}
}

// applyR2Update changes the p2 attribute of the R2 tuple with key b and
// feeds the delta to the engine.
func (f *fixture) applyR2Update(t *testing.T, b, newP2 int64) {
	t.Helper()
	w := f.w
	s2 := w.R2.Schema()
	prev := w.Pager.SetCharging(false)
	old, ok := w.R2.Hash().Lookup(w.Pager, uint64(b))
	if !ok {
		t.Fatalf("R2 tuple b=%d missing", b)
	}
	newTup := append([]byte(nil), old...)
	s2.SetByName(newTup, "p2", newP2)
	w.R2.Hash().Delete(w.Pager, uint64(b))
	w.R2.Insert(w.Pager, newTup)
	w.Pager.BeginOp()
	w.Pager.SetCharging(prev)
	f.eng.Apply(w.Pager, w.R2, [][]byte{newTup}, [][]byte{old})
	w.Pager.BeginOp()
}

// TestR2UpdatesMaintainJoinView exercises the second source: restyling R2
// tuples into and out of the C_f2 band must add and remove the joined
// result tuples.
func TestR2UpdatesMaintainJoinView(t *testing.T) {
	f := newFixture(t)
	// b=15 has p2 = 15%10 = 5 (outside the band [0,4]); R1 band [50,69]
	// holds tuples with a in 10..29, so a=15 matches tids 55 and 175...
	// only tid 55 has skey in [50,69].
	before := f.store.MustEntry(2).Len()
	f.applyR2Update(t, 15, 2) // now passes C_f2
	f.assertConsistent(t, f.p2)
	if got := f.store.MustEntry(2).Len(); got != before+1 {
		t.Fatalf("view grew by %d, want 1", got-before)
	}
	// And back out of the band.
	f.applyR2Update(t, 15, 9)
	f.assertConsistent(t, f.p2)
	if got := f.store.MustEntry(2).Len(); got != before {
		t.Fatalf("view has %d tuples, want %d", got, before)
	}
	// An R2 change outside any band is free and irrelevant.
	f.w.Meter.Reset()
	f.applyR2Update(t, 16, 7) // 6 -> 7, both outside [0,4]
	if ms := f.w.Meter.Milliseconds(); ms != 0 {
		t.Fatalf("irrelevant R2 update cost %v ms", ms)
	}
	f.assertConsistent(t, f.p2)
}

// TestR2UpdateChargesBandScan: the R2-side delta plan must pay for the R1
// band scan (NestedLoopJoin outer), since R1 has no index on the join
// attribute.
func TestR2UpdateChargesBandScan(t *testing.T) {
	f := newFixture(t)
	f.w.Meter.Reset()
	f.applyR2Update(t, 15, 2)
	c := f.w.Meter.Snapshot()
	if c.PageReads < 2 {
		t.Fatalf("R2-delta maintenance should scan the R1 band: %v", c)
	}
	// 1 routing screen + 20 band-scan screens (the nested-loop outer tests
	// each band tuple), 1 delta-set entry.
	if c.Screens != 21 || c.DeltaOps != 1 {
		t.Fatalf("R2 routing charged screens=%d deltaOps=%d, want 21 and 1", c.Screens, c.DeltaOps)
	}
}

// TestManyRandomUpdatesStayConsistent drives a long random churn and
// checks the views never drift from recomputation.
func TestManyRandomUpdatesStayConsistent(t *testing.T) {
	churn(t, newFixture(t))
}

// TestDeltaAppliersCopyWhatTheyKeep repeats the churn, and an R2 update
// through the nested-loop source, with every plan's emitted tuples
// overwritten as soon as emit returns: Prepare's Materialize and the delta
// appliers (Delete by key, Insert into the view's page) must have taken
// what they need by then.
func TestDeltaAppliersCopyWhatTheyKeep(t *testing.T) {
	f := newFixtureOver(t, aliastest.Borrowed)
	f.assertConsistent(t, f.p1)
	f.assertConsistent(t, f.p2)
	churn(t, f)
	f.applyR2Update(t, 15, 2)
	f.applyR2Update(t, 12, 7)
	f.assertConsistent(t, f.p2)
}

func churn(t *testing.T, f *fixture) {
	t.Helper()
	// Track current skey per tid (all start at skey = tid).
	cur := map[int64]int64{}
	for tid := int64(0); tid < 200; tid++ {
		cur[tid] = tid
	}
	seq := []int64{3, 27, 55, 110, 199, 42, 21, 68, 150, 5, 30, 61, 25, 99, 140}
	newSkeys := []int64{25, 60, 10, 52, 33, 66, 21, 90, 55, 38, 71, 20, 59, 24, 65}
	for i, tid := range seq {
		f.applyUpdate(t, [][3]int64{{tid, cur[tid], newSkeys[i]}})
		cur[tid] = newSkeys[i]
		f.assertConsistent(t, f.p1)
		f.assertConsistent(t, f.p2)
	}
}
