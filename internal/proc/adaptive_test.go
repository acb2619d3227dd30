package proc

import (
	"slices"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
)

func newAdaptiveFixture(t *testing.T) (*dbtest.World, *CacheInvalidate, *Manager) {
	t.Helper()
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 1, 10, 19))
	m.Define(p1Def(w, 2, 100, 109))
	s := NewAdaptive(m, cache.NewStore(w.Pager.Disk()))
	w.Pager.SetCharging(false)
	s.Prepare(w.Pager)
	w.Pager.BeginOp()
	w.Pager.SetCharging(true)
	w.Meter.Reset()
	return w, s, m
}

func TestAdaptiveStaysCachingWhenUpdatesRare(t *testing.T) {
	w, s, _ := newAdaptiveFixture(t)
	if s.Name() != "Adaptive Caching" {
		t.Fatal("name wrong")
	}
	for i := 0; i < 20; i++ {
		if got := len(access(w, s, 1)); got != 10 {
			t.Fatalf("Access returned %d", got)
		}
	}
	if s.BypassedCount() != 0 {
		t.Fatal("quiet procedure dropped caching")
	}
	// Warm accesses charge only the cached read: 20 accesses x 3 result
	// pages (10 tuples at 4 per page), and no screens or writes.
	if c := w.Meter.Snapshot(); c.PageReads != 60 || c.Screens != 0 || c.PageWrites != 0 {
		t.Fatalf("warm accesses charged %v", c)
	}
	accessPanicsOutsideScope(t, w, s)
}

// churn invalidates procedure 1's band before every access.
func churn(t *testing.T, w *dbtest.World, s Strategy, rounds int) {
	t.Helper()
	skey := map[int64]int64{}
	for i := 0; i < rounds; i++ {
		// Bounce tuple 15 in and out of the band [10, 19].
		tid := int64(15)
		cur, ok := skey[tid]
		if !ok {
			cur = 15
		}
		next := int64(500 + i)
		moveTuple(t, w, s, tid, cur, next)
		skey[tid] = next
		// Move it back so the band keeps changing.
		moveTuple(t, w, s, tid, next, 15)
		skey[tid] = 15
		access(w, s, 1)
	}
}

func TestAdaptiveBypassesUnderChurnAndRecovers(t *testing.T) {
	w, s, _ := newAdaptiveFixture(t)
	churn(t, w, s, 12)
	if s.BypassedCount() != 1 {
		t.Fatalf("BypassedCount = %d, want 1 (procedure 1 under churn)", s.BypassedCount())
	}

	// Bypassed accesses recompute without write-backs.
	w.Meter.Reset()
	out := access(w, s, 1)
	if len(out) != 10 {
		t.Fatalf("bypassed access returned %d", len(out))
	}
	if c := w.Meter.Snapshot(); c.PageWrites != 0 || c.Screens == 0 {
		t.Fatalf("bypassed access should recompute without refresh: %v", c)
	}

	// With the churn gone, the probe access re-enables caching...
	for i := 0; i < probeEvery; i++ {
		access(w, s, 1)
	}
	if s.BypassedCount() != 0 {
		t.Fatal("procedure did not recover to caching mode")
	}
	// ...and subsequent accesses are warm reads again.
	w.Meter.Reset()
	access(w, s, 1)
	if c := w.Meter.Snapshot(); c.Screens != 0 {
		t.Fatalf("recovered access should be a cached read: %v", c)
	}
}

func TestAdaptiveBypassAvoidsInvalidationCost(t *testing.T) {
	w, s, _ := newAdaptiveFixture(t)
	churn(t, w, s, 12)
	if s.BypassedCount() != 1 {
		t.Fatalf("BypassedCount = %d, want 1", s.BypassedCount())
	}
	// Procedure 1 is bypassed: it holds no locks, so updates in its band
	// record no invalidations.
	w.Meter.Reset()
	moveTuple(t, w, s, 12, 12, 600)
	if c := w.Meter.Snapshot(); c.Invalidations != 0 {
		t.Fatalf("bypassed procedure still charged %d invalidations", c.Invalidations)
	}
	// Procedure 2 still caches: its band being hit does charge.
	moveTuple(t, w, s, 105, 105, 601)
	if c := w.Meter.Snapshot(); c.Invalidations != 1 {
		t.Fatalf("caching procedure charged %d invalidations, want 1", c.Invalidations)
	}
}

// TestAdaptiveBypassesOnInvalidationBurst: repeated invalidations with no
// intervening access drop the procedure to bypass straight from the
// update path, before the next access even happens.
func TestAdaptiveBypassesOnInvalidationBurst(t *testing.T) {
	w, s, _ := newAdaptiveFixture(t)
	// Each round is two updates, each invalidating procedure 1 once.
	for i := 0; i < bypassAfterInvalidations/2; i++ {
		if s.BypassedCount() != 0 {
			t.Fatalf("bypassed after only %d invalidations", 2*i)
		}
		moveTuple(t, w, s, 15, 15, int64(700+i))
		moveTuple(t, w, s, 15, int64(700+i), 15)
	}
	if s.BypassedCount() != 1 {
		t.Fatalf("BypassedCount = %d after burst, want 1", s.BypassedCount())
	}
	// Further updates in the band cost nothing (no locks held).
	w.Meter.Reset()
	moveTuple(t, w, s, 12, 12, 800)
	if c := w.Meter.Snapshot(); c.Invalidations != 0 {
		t.Fatalf("burst-bypassed procedure still charged %d invalidations", c.Invalidations)
	}
}

func TestRecomputeInterfaceCompleteness(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 1, 0, 9))
	var s Strategy = NewAlwaysRecompute(m)
	s.Prepare(w.Pager) // no-op must not panic
	s.OnUpdate(w.Pager, Delta{Rel: w.R1})
	if s.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestCacheInvalidateName(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 1, 0, 9))
	s := NewCacheInvalidate(m, cache.NewStore(w.Pager.Disk()))
	if s.Name() != "Cache and Invalidate" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestCacheInvalidateCoarseLocks(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 1, 10, 19))
	m.Define(p1Def(w, 2, 100, 109))
	store := cache.NewStore(w.Pager.Disk())
	s := NewCacheInvalidate(m, store)
	s.SetCoarseLocks(true)
	w.Pager.SetCharging(false)
	s.Prepare(w.Pager)
	w.Pager.BeginOp()
	w.Pager.SetCharging(true)
	// An update touching NEITHER band still invalidates both procedures.
	moveTuple(t, w, s, 150, 150, 160)
	if store.MustEntry(1).Valid() || store.MustEntry(2).Valid() {
		t.Fatal("coarse locks should invalidate every procedure")
	}
	if got := w.Meter.Snapshot().Invalidations; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
}

// TestAdaptiveResultsStayCorrect compares every adaptive access with a
// recompute, tuple by tuple, across a drop to bypass and the retry. While
// procedure 1 is bypassed it holds no i-locks, so an update to its band
// leaves its entry stale yet usable: the retry must refresh it anyway.
func TestAdaptiveResultsStayCorrect(t *testing.T) {
	w, s, m := newAdaptiveFixture(t)
	rc := NewAlwaysRecompute(m)
	images := func(tuples [][]byte) []string {
		out := make([]string, len(tuples))
		for i, tup := range tuples {
			out[i] = string(tup)
		}
		slices.Sort(out)
		return out
	}
	check := func(id int) {
		t.Helper()
		var got, want []string
		w.Read(func() {
			got = images(s.Access(w.Pager, id))
			want = images(rc.Access(w.Pager, id))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("proc %d: adaptive served %d tuples that are not the %d a recompute returns", id, len(got), len(want))
		}
	}
	check(1)
	check(2)
	churn(t, w, s, 12) // forces proc 1 into bypass
	if s.BypassedCount() != 1 {
		t.Fatalf("BypassedCount = %d after churn, want 1", s.BypassedCount())
	}
	moveTuple(t, w, s, 12, 12, 600)
	if !s.store.MustEntry(1).UsableAt(w.Pager.Disk().CommitStamp()) {
		t.Fatal("the bypassed entry saw the update: the retry below has nothing to prove")
	}
	for i := 0; i < probeEvery+1; i++ {
		check(1)
	}
	if s.BypassedCount() != 0 {
		t.Fatal("procedure 1 did not retry caching")
	}
	check(2)
}
