package engine

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/dbtest/cowtest"
	"dbproc/internal/sim"
	"dbproc/internal/workload"
)

// TestPoisonOnReclaim runs every strategy with four sessions on a disk
// whose version GC scribbles 0xDB over each page image the moment it
// reclaims it for reuse (cowtest.Poison). A reader that could
// still reach a reclaimed image — a snapshot the horizon ignored, a
// borrowed tuple outliving its snapshot, a shared image that should never
// have been pooled — then returns garbage, and under -race also races with
// the scribble. Three judges read the history: the SI oracle; the
// unpoisoned twin, an Always Recompute world that replays the updates in
// commit order and must reproduce every query's digest at the query's
// snapshot stamp; and the recompute differential over the final state.
func TestPoisonOnReclaim(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	for _, tc := range []struct {
		name     string
		strat    costmodel.Strategy
		adaptive bool
	}{
		{"recompute", costmodel.AlwaysRecompute, false},
		{"ci", costmodel.CacheInvalidate, false},
		{"uc-avm", costmodel.UpdateCacheAVM, false},
		{"uc-rvm", costmodel.UpdateCacheRVM, false},
		{"adaptive", costmodel.CacheInvalidate, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.strat, costmodel.Model2, 977, 60, 120)
			cfg.Adaptive = tc.adaptive
			e := New(cfg, Options{Clients: 4, RecordHistory: true})
			disk := e.World().Disk()
			cowtest.Poison(disk)
			res := e.Run(context.Background())

			reclaimed, reused, _, _ := disk.ReclaimStats()
			if reclaimed == 0 || reused == 0 {
				t.Fatalf("%d images reclaimed, %d reused: the run never exercised reclamation", reclaimed, reused)
			}
			txns := TxnsFromHistory(res.History, e.World().ProcIDs(), e.World().ProcRelations)
			if rep := CheckSnapshotIsolation(txns); !rep.Serializable {
				t.Fatalf("SI oracle: %s", rep.Window)
			}
			checkAgainstTwin(t, cfg, res.History)
			w := e.World()
			for _, id := range w.ProcIDs() {
				if !bytes.Equal(Digest(w.Access(id)), Digest(w.RecomputeOracle(id))) {
					t.Errorf("procedure %d differs from a fresh recompute after the run", id)
				}
			}
		})
	}
}

// checkAgainstTwin replays hist's updates, in commit order, on a fresh
// Always Recompute world that has no MVCC and reclaims nothing, and checks
// that every query returned what the twin computes at the query's
// snapshot stamp.
func checkAgainstTwin(t *testing.T, cfg sim.Config, hist []HistoryEntry) {
	t.Helper()
	cfg.Strategy, cfg.Adaptive = costmodel.AlwaysRecompute, false
	twin := sim.Build(cfg)
	var updates, queries []HistoryEntry
	for _, he := range hist {
		if he.Op.Kind == workload.Update {
			updates = append(updates, he)
		} else {
			queries = append(queries, he)
		}
	}
	// Stable: queries of one snapshot stay in commit order. Updates are in
	// stamp order already (stamp = seq + 1, history is in commit order).
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].Snap < queries[j].Snap })
	applied := 0
	for _, q := range queries {
		for applied < len(updates) && updates[applied].Snap <= q.Snap {
			twin.ReplayUpdate(updates[applied].Update)
			applied++
		}
		if want := Digest(twin.Access(q.Op.ProcID)); !bytes.Equal(q.Result, want) {
			t.Errorf("session %d seq %d: access(%d) at snapshot %d is not what the unpoisoned twin reads there",
				q.Session, q.Seq, q.Op.ProcID, q.Snap)
		}
	}
}

// TestUpdateReusesItsPages: at N = 100 000 an update under Update Cache
// works in the page buffers version GC reclaimed from the updates before
// it, so it makes (next to) no page image and allocates well under 64 KB
// in all (~38 KB under uc-rvm, ~51 KB under uc-avm); it used to allocate
// ~326 KB — ~75 page images and ~41 directory chunks of 1.5 KB. Images
// are as long as their owner's records, so the count is the disk's own
// (Disk.ImagesMade), not a heap size class. The warm-up is long on
// purpose: R1 is bulk-loaded with full leaves, so for the first few
// hundred updates a quarter of the 25 inserts split a leaf (5.7 new pages
// per update at update 50), and a page the tree grows by needs an image
// nobody can give back. After 2 000 updates (~0.3 s) the split wave has passed — 6 new
// pages in 100 updates — and that residue is what the allowance is for.
func TestUpdateReusesItsPages(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	const warm, measured = 2000, 100
	for _, strat := range []costmodel.Strategy{costmodel.UpdateCacheRVM, costmodel.UpdateCacheAVM} {
		t.Run(strat.String(), func(t *testing.T) {
			p := costmodel.Default()
			p.K, p.Q, p.Z = warm+measured, 100, 0.5
			e := New(sim.Config{Params: p, Model: costmodel.Model1, Strategy: strat, Seed: 5}, Options{Clients: 1})
			sess := e.OpenSession(0)
			var updates []workload.Op
			for _, op := range e.World().WorkloadOps() {
				if op.Kind == workload.Update {
					updates = append(updates, op)
				}
			}
			for _, op := range updates[:warm] {
				sess.Exec(op)
			}
			disk := e.World().Disk()
			_, reused0, _, _ := disk.ReclaimStats()
			var before, after runtime.MemStats
			made0 := disk.ImagesMade()
			runtime.ReadMemStats(&before)
			for _, op := range updates[warm : warm+measured] {
				sess.Exec(op)
			}
			runtime.ReadMemStats(&after)
			made := disk.ImagesMade() - made0
			reclaimed, reused, pooled, lag := disk.ReclaimStats()
			perUpdate := (after.TotalAlloc - before.TotalAlloc) / measured
			t.Logf("%d B and %d allocations per update; %d page images made in %d updates; %d buffers reused per update; pool %d; reuse ratio %.3f",
				perUpdate, (after.Mallocs-before.Mallocs)/measured, made, measured, (reused-reused0)/measured, pooled, float64(reused)/float64(reclaimed))
			if made > measured/4 {
				t.Errorf("%d updates made %d page images, want at most %d (it was ~75 per update)", measured, made, measured/4)
			}
			if perUpdate > 64<<10 {
				t.Errorf("an update allocates %d bytes, want <= 64 KB", perUpdate)
			}
			if (reused-reused0)/measured < 40 || float64(reused) < 0.95*float64(reclaimed) || lag != 0 {
				t.Errorf("%d buffers reused per update, %d of %d reclaimed reused overall, horizon lag %d",
					(reused-reused0)/measured, reused, reclaimed, lag)
			}
		})
	}
}
