package proc_test

import (
	"bytes"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest/cowtest"
	"dbproc/internal/proc"
	"dbproc/internal/sim"
	"dbproc/internal/storage"
	"dbproc/internal/workload"
)

// servedWorld is a small world driven the way the engine drives one:
// every reader on a session pager of its own reading at a snapshot, every
// update inside an epoch published at the next stamp.
type servedWorld struct {
	t       *testing.T
	w       *sim.World
	updates []workload.Op
	next    int // next unused update op
	session int
}

func newServedWorld(t *testing.T, strat costmodel.Strategy, adaptive bool) *servedWorld {
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.F2 = 0.02
	p.N1, p.N2 = 3, 3
	p.L = 2
	p.SF = 0.5
	p.K, p.Q = 400, 1
	w := sim.Build(sim.Config{Params: p, Model: costmodel.Model1, Strategy: strat, Adaptive: adaptive, Seed: 5})
	sw := &servedWorld{t: t, w: w}
	for _, op := range w.WorkloadOps() {
		if op.Kind == workload.Update {
			sw.updates = append(sw.updates, op)
		}
	}
	return sw
}

// reader opens a session pager reading at a snapshot of the newest
// commit; it stays open, pinning that stamp, until the test closes it.
func (sw *servedWorld) reader() *storage.Pager {
	sw.session++
	pg := sw.w.SessionPager(sw.session)
	pg.OpenScope(false)
	return pg
}

// update runs one update transaction as the epoch's writer and publishes
// it.
func (sw *servedWorld) update() {
	if sw.next == len(sw.updates) {
		sw.t.Fatal("out of update ops")
	}
	sw.session++
	pg := sw.w.SessionPager(sw.session)
	pg.OpenScope(true)
	sw.w.ExecOpOn(pg, sw.updates[sw.next])
	sw.next++
	pg.CloseScope(sw.w.Disk().CommitStamp() + 1)
}

// kept is what one access returned, and a deep copy taken at once.
// borrowed marks tuples that are sub-slices of page images, which must
// be clipped; a recompute's tuples are private copies.
type kept struct {
	what      string
	borrowed  bool
	out, want [][]byte
}

func keep(what string, borrowed bool, out [][]byte) kept {
	want := make([][]byte, len(out))
	for i, tup := range out {
		want[i] = bytes.Clone(tup)
	}
	return kept{what, borrowed, out, want}
}

func (k kept) check(t *testing.T) {
	t.Helper()
	for i := range k.out {
		if !bytes.Equal(k.out[i], k.want[i]) {
			t.Fatalf("%s: tuple %d changed after the access returned it: an entry page was written in place", k.what, i)
		}
		if k.borrowed && cap(k.out[i]) != len(k.out[i]) {
			t.Fatalf("%s: tuple %d has capacity %d beyond its %d bytes: an append would run into the page", k.what, i, cap(k.out[i]), len(k.out[i]))
		}
	}
}

func sameTuples(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestAccessResultsSurviveEntryRewrites: Strategy.Access returns borrowed
// tuples — on a cache hit, sub-slices of the page images it read — and a
// later update or refresh that rewrites the entry must leave them as they
// were: maintenance copies a page on first dirty, a refresh writes new
// images. Update Cache (AVM, RVM) readers are checked across maintained
// updates; Cache and Invalidate and Adaptive across a hit, a refresh and a
// serve-self recompute, each followed by an invalidating update and
// another session's refresh of the same entry.
func TestAccessResultsSurviveEntryRewrites(t *testing.T) {
	for name, strat := range map[string]costmodel.Strategy{
		"uc-avm": costmodel.UpdateCacheAVM, "uc-rvm": costmodel.UpdateCacheRVM,
	} {
		t.Run(name, func(t *testing.T) {
			sw := newServedWorld(t, strat, false)
			s, ids := sw.w.Strategy(), sw.w.ProcIDs()
			var before []kept
			old := sw.reader()
			for _, id := range ids {
				before = append(before, keep(name+" hit", true, s.Access(old, id)))
			}
			for i := 0; i < 200; i++ {
				sw.update()
			}
			changed := 0
			now := sw.reader()
			for i, id := range ids {
				if len(before[i].want) > 0 && !sameTuples(s.Access(now, id), before[i].want) {
					changed++
				}
				before[i].check(t)
			}
			if changed == 0 {
				t.Fatal("200 updates changed no procedure's result: no entry that was read got rewritten")
			}
		})
	}
	for name, adaptive := range map[string]bool{"ci": false, "adaptive": true} {
		t.Run(name, func(t *testing.T) {
			sw := newServedWorld(t, costmodel.CacheInvalidate, adaptive)
			s, disk, store := sw.w.Strategy(), sw.w.Disk(), sw.w.CacheStore()
			// invalidate runs updates until one invalidates an entry, and
			// returns the procedure and a reader opened just before that
			// update: a snapshot the next refresh postdates.
			invalidate := func() (int, *storage.Pager) {
				for {
					stale := sw.reader()
					sw.update()
					for _, id := range sw.w.ProcIDs() {
						if !store.MustEntry(cache.ID(id)).UsableAt(disk.CommitStamp()) {
							return id, stale
						}
					}
					stale.CloseScope(0)
				}
			}
			var all []kept
			id, stale := invalidate()
			e := store.MustEntry(cache.ID(id))

			refresh := keep(name+" refresh", true, s.Access(sw.reader(), id))
			if e.ComputedAt() != disk.CommitStamp() {
				t.Fatalf("the cold access did not install: computed at %d, stamp %d", e.ComputedAt(), disk.CommitStamp())
			}
			hit := keep(name+" hit", true, s.Access(sw.reader(), id))
			self := keep(name+" serve-self", false, s.Access(stale, id))
			if e.ComputedAt() != disk.CommitStamp() {
				t.Fatal("the reader at the older snapshot replaced the shared entry instead of serving itself")
			}
			if len(refresh.want) == 0 || len(self.want) == 0 {
				t.Fatalf("procedure %d has an empty result: nothing to check", id)
			}
			all = append(all, refresh, hit, self)

			// Rewrite the same entry until its contents differ: invalidate
			// it again and let another session refresh it, so the pages the
			// tuples above were borrowed from are freed, reused and
			// rewritten.
			for round := 0; ; round++ {
				for e.UsableAt(disk.CommitStamp()) {
					sw.update()
				}
				later := keep(name+" later refresh", true, s.Access(sw.reader(), id))
				all = append(all, later)
				if !sameTuples(later.want, refresh.want) {
					break
				}
				if round == 50 {
					t.Fatal("50 invalidations never changed the entry's contents")
				}
			}
			for _, k := range all {
				k.check(t)
			}
		})
	}
}

// TestRefreshIsOnDiskBeforeTheEntryUnlocks: a query-time refresh
// publishes the entry's new directory at once (entry files are
// unversioned), so the refresher's dirty frames must reach the disk
// before the entry mutex is released — else a second reader of the entry
// follows the new directory to pages that are not written yet and reads
// zeroes. The hook runs a second session's access at the first moment it
// could: right after the refresher unlocks.
func TestRefreshIsOnDiskBeforeTheEntryUnlocks(t *testing.T) {
	for name, adaptive := range map[string]bool{"ci": false, "adaptive": true} {
		t.Run(name, func(t *testing.T) {
			sw := newServedWorld(t, costmodel.CacheInvalidate, adaptive)
			s, disk, store := sw.w.Strategy(), sw.w.Disk(), sw.w.CacheStore()
			id := -1
			for id < 0 {
				sw.update()
				for _, p := range sw.w.ProcIDs() {
					if !store.MustEntry(cache.ID(p)).UsableAt(disk.CommitStamp()) {
						id = p
					}
				}
			}
			first, second := sw.reader(), sw.reader()
			var got [][]byte
			ran := 0
			proc.SetAfterUnlock(s, func() {
				if ran++; ran == 1 { // not again under the second reader's own access
					got = s.Access(second, id)
				}
			})
			want := s.Access(first, id)
			if ran != 2 {
				t.Fatalf("the hook ran %d times, want once per access", ran)
			}
			if len(want) == 0 || !sameTuples(got, want) {
				t.Fatalf("the second reader of a just-refreshed entry read %d tuples that are not the %d the refresher installed",
					len(got), len(want))
			}
			if !sameTuples(want, sw.w.RecomputeOracle(id)) {
				t.Fatal("the refresher's own result is wrong")
			}
		})
	}
}

// TestCachedHitAllocations: a hit on a 100-tuple entry allocates the
// result slice, sized once, and nothing per tuple (61 allocations when
// every tuple was copied out of its page).
func TestCachedHitAllocations(t *testing.T) {
	p := costmodel.Default()
	p.N1, p.N2 = 20, 0 // selections only: 100 tuples each at the paper's f
	w := sim.Build(sim.Config{Params: p, Model: costmodel.Model1, Strategy: costmodel.UpdateCacheAVM, Seed: 1})
	strat, pg := w.Strategy(), w.SessionPager(0)
	for _, id := range w.ProcIDs()[:5] {
		var result [][]byte
		allocs := testing.AllocsPerRun(20, func() {
			pg.BeginOp()
			result = strat.Access(pg, id)
		})
		if len(result) != 100 {
			t.Fatalf("procedure %d returns %d tuples, want 100", id, len(result))
		}
		if allocs > 4 {
			t.Errorf("procedure %d: a cached hit made %v allocations, want <= 4", id, allocs)
		}
	}
}

// TestAccessResultsSurviveReclamation: version GC reclaims the page images the horizon has passed and updates work in them
// again, so Access's borrowed tuples are valid until the reader's snapshot
// is released — and not a moment longer. Every update here is followed by
// version GC, as in the engine, with reclaimed buffers poisoned the moment
// GC takes them (cowtest.Poison). A reader holding a registered snapshot
// keeps its tuples across 150 maintained updates under Update Cache, and
// across invalidations and other sessions' refreshes of the entries it
// read — which replace an entry's images outside any epoch, where GC must
// not take them at all — under Cache and Invalidate and Adaptive.
func TestAccessResultsSurviveReclamation(t *testing.T) {
	// readAll accesses every procedure under a registered snapshot.
	readAll := func(sw *servedWorld, what string) (all []kept, release func()) {
		pg := sw.reader()
		for _, id := range sw.w.ProcIDs() {
			all = append(all, keep(what, false, sw.w.Strategy().Access(pg, id)))
		}
		return all, func() { pg.CloseScope(0) }
	}
	for name, strat := range map[string]costmodel.Strategy{
		"uc-avm": costmodel.UpdateCacheAVM, "uc-rvm": costmodel.UpdateCacheRVM,
	} {
		t.Run(name, func(t *testing.T) {
			sw := newServedWorld(t, strat, false)
			disk := sw.w.Disk()
			cowtest.Poison(disk)
			update := func(n int) {
				for ; n > 0; n-- {
					sw.update()
					disk.GCVersions()
				}
			}
			update(50) // the entries' pages are reclaimed buffers by now
			before, release := readAll(sw, name+" pinned hit")
			update(150)
			for _, k := range before {
				k.check(t)
			}
			if _, reused, _, lag := disk.ReclaimStats(); reused == 0 || lag != 150 {
				t.Fatalf("%d buffers reused, horizon lag %d: not the run this test is about", reused, lag)
			}
			// The other half of the contract: once the snapshot is released
			// the images are GC's, and what was borrowed from them is gone.
			release()
			disk.GCVersions()
			poisoned := 0
			for _, k := range before {
				for _, tup := range k.out {
					if bytes.Equal(tup, bytes.Repeat([]byte{0xDB}, len(tup))) {
						poisoned++
					}
				}
			}
			if poisoned == 0 {
				t.Fatal("nothing borrowed under the released snapshot was reclaimed: the test has no teeth")
			}
		})
	}
	for name, adaptive := range map[string]bool{"ci": false, "adaptive": true} {
		t.Run(name, func(t *testing.T) {
			sw := newServedWorld(t, costmodel.CacheInvalidate, adaptive)
			s, disk, store := sw.w.Strategy(), sw.w.Disk(), sw.w.CacheStore()
			cowtest.Poison(disk)
			rewritten := 0
			for round := 0; round < 8; round++ {
				// Twice: the first access after an invalidation refreshes an
				// entry, the second hits it.
				refreshed, release1 := readAll(sw, name+" refresh or hit")
				hits, release2 := readAll(sw, name+" hit")
				// Updates until some entry is invalidated, then another
				// session refreshes it at the newer stamp.
				id := -1
				for id < 0 {
					sw.update()
					disk.GCVersions()
					for _, p := range sw.w.ProcIDs() {
						if !store.MustEntry(cache.ID(p)).UsableAt(disk.CommitStamp()) {
							id = p
						}
					}
				}
				later := sw.reader()
				if got := s.Access(later, id); !sameTuples(got, refreshed[id].want) {
					rewritten++
				}
				later.CloseScope(0)
				disk.GCVersions()
				for _, k := range append(refreshed, hits...) {
					k.check(t)
				}
				release1()
				release2()
			}
			if rewritten == 0 {
				t.Fatal("no refresh changed an entry a reader held")
			}
		})
	}
}
