package sim

import (
	"testing"

	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
)

// TestModel2ChargesPinned runs one seeded model-2 workload under each
// strategy and compares the charged events with the counts the same run
// produced before hash probes went through a key column and plans emitted
// borrowed tuples. The identity tests compare the engine with sim.Run,
// and both would move together if an access path started charging
// differently (a probe that skips a chain page holding no match, say); a
// constant does not move. So that such a skip would show, R2 and R3 are
// first given overflow pages: a second, non-joining tuple per bucket slot,
// outside every C_f2 band.
func TestModel2ChargesPinned(t *testing.T) {
	// Recorded at the parent commit (PR 12) with this same test.
	want := map[costmodel.Strategy]metric.Counters{
		costmodel.AlwaysRecompute: {PageReads: 557, Screens: 2008},
		costmodel.CacheInvalidate: {PageReads: 250, PageWrites: 8, Screens: 606, Invalidations: 29},
		costmodel.UpdateCacheAVM:  {PageReads: 150, PageWrites: 14, Screens: 2349, DeltaOps: 46},
		costmodel.UpdateCacheRVM:  {PageReads: 193, PageWrites: 66, Screens: 45},
	}
	for _, s := range costmodel.Strategies {
		cfg := testConfig(costmodel.Model2, s)
		cfg.R2UpdateFraction = 0.3
		w := Build(cfg)
		w.pager.SetCharging(false)
		s2, s3 := w.r2.Schema(), w.r3.Schema()
		for j, n2 := 0, w.r2.Hash().Len(); j < n2; j++ {
			tup := s2.New()
			s2.SetByName(tup, "tid", int64(n2+j))
			s2.SetByName(tup, "b", int64(n2+j))
			s2.SetByName(tup, "p2", p2Max+1)
			w.r2.Insert(w.pager, tup)
		}
		for j, n3 := 0, w.r3.Hash().Len(); j < n3; j++ {
			tup := s3.New()
			s3.SetByName(tup, "tid", int64(n3+j))
			s3.SetByName(tup, "d", int64(n3+j))
			w.r3.Insert(w.pager, tup)
		}
		w.pager.BeginOp()
		w.pager.SetCharging(true)
		res := w.Run()
		if res.Queries != 15 || res.Updates != 15 {
			t.Fatalf("%v: ran %d queries and %d updates, want 15 of each", s, res.Queries, res.Updates)
		}
		if res.Counters != want[s] {
			t.Errorf("%v charged %+v, want %+v", s, res.Counters, want[s])
		}
	}
}
