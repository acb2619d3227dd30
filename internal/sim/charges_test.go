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

	// The same pin over more inputs: every strategy, Adaptive included,
	// in both models, under the polite workload and two hostile ones, as
	// the plain test-scale sim.Run — counters and total simulated cost.
	// Recorded at the commit before sim.Run ran its operations as
	// snapshot reads and update epochs. The engine-vs-sim identity tests
	// cannot catch a charge that moves there, since both sides run in the
	// same scopes and would move together.
	strategies := map[string]costmodel.Strategy{
		"recompute": costmodel.AlwaysRecompute, "ci": costmodel.CacheInvalidate,
		"uc-avm": costmodel.UpdateCacheAVM, "uc-rvm": costmodel.UpdateCacheRVM,
		"adaptive": costmodel.CacheInvalidate,
	}
	for _, pin := range []struct {
		model    int
		scenario string
		strategy string
		want     metric.Counters
		totalMs  float64
	}{
		{1, "polite", "recompute", metric.Counters{PageReads: 198, Screens: 2010}, 7950},
		{1, "polite", "ci", metric.Counters{PageReads: 105, PageWrites: 8, Screens: 606, Invalidations: 31}, 3996},
		{1, "polite", "uc-avm", metric.Counters{PageReads: 67, PageWrites: 18, Screens: 31, DeltaOps: 31}, 2612},
		{1, "polite", "uc-rvm", metric.Counters{PageReads: 90, PageWrites: 32, Screens: 29}, 3689},
		{1, "polite", "adaptive", metric.Counters{PageReads: 105, PageWrites: 8, Screens: 606, Invalidations: 31}, 3996},
		{1, "storm-adversarial", "recompute", metric.Counters{PageReads: 64, Screens: 1500}, 3420},
		{1, "storm-adversarial", "ci", metric.Counters{PageReads: 45, Invalidations: 45}, 1350},
		{1, "storm-adversarial", "uc-avm", metric.Counters{PageReads: 195, PageWrites: 80, Screens: 450, DeltaOps: 450}, 9150},
		{1, "storm-adversarial", "uc-rvm", metric.Counters{PageReads: 233, PageWrites: 84, Screens: 150}, 9660},
		{1, "storm-adversarial", "adaptive", metric.Counters{PageReads: 45, Invalidations: 24}, 1350},
		{1, "nested-naive", "recompute", metric.Counters{PageReads: 521, Screens: 8173}, 23803},
		{1, "nested-naive", "ci", metric.Counters{PageReads: 273, PageWrites: 20, Screens: 1497, Invalidations: 32}, 10287},
		{1, "nested-naive", "uc-avm", metric.Counters{PageReads: 164, PageWrites: 22, Screens: 33, DeltaOps: 33}, 5646},
		{1, "nested-naive", "uc-rvm", metric.Counters{PageReads: 212, PageWrites: 32, Screens: 27}, 7347},
		{1, "nested-naive", "adaptive", metric.Counters{PageReads: 273, PageWrites: 20, Screens: 1497, Invalidations: 32}, 10287},
		{2, "polite", "recompute", metric.Counters{PageReads: 315, Screens: 2010}, 11460},
		{2, "polite", "ci", metric.Counters{PageReads: 152, PageWrites: 8, Screens: 606, Invalidations: 31}, 5406},
		{2, "polite", "uc-avm", metric.Counters{PageReads: 82, PageWrites: 18, Screens: 31, DeltaOps: 31}, 3062},
		{2, "polite", "uc-rvm", metric.Counters{PageReads: 90, PageWrites: 32, Screens: 29}, 3689},
		{2, "polite", "adaptive", metric.Counters{PageReads: 152, PageWrites: 8, Screens: 606, Invalidations: 31}, 5406},
		{2, "storm-adversarial", "recompute", metric.Counters{PageReads: 64, Screens: 1500}, 3420},
		{2, "storm-adversarial", "ci", metric.Counters{PageReads: 45, Invalidations: 45}, 1350},
		{2, "storm-adversarial", "uc-avm", metric.Counters{PageReads: 266, PageWrites: 80, Screens: 450, DeltaOps: 450}, 11280},
		{2, "storm-adversarial", "uc-rvm", metric.Counters{PageReads: 233, PageWrites: 84, Screens: 150}, 9660},
		{2, "storm-adversarial", "adaptive", metric.Counters{PageReads: 45, Invalidations: 24}, 1350},
		{2, "nested-naive", "recompute", metric.Counters{PageReads: 819, Screens: 8173}, 32743},
		{2, "nested-naive", "ci", metric.Counters{PageReads: 373, PageWrites: 20, Screens: 1497, Invalidations: 32}, 13287},
		{2, "nested-naive", "uc-avm", metric.Counters{PageReads: 179, PageWrites: 22, Screens: 33, DeltaOps: 33}, 6096},
		{2, "nested-naive", "uc-rvm", metric.Counters{PageReads: 212, PageWrites: 32, Screens: 27}, 7347},
		{2, "nested-naive", "adaptive", metric.Counters{PageReads: 373, PageWrites: 20, Screens: 1497, Invalidations: 32}, 13287},
	} {
		cfg := testConfig(costmodel.Model(pin.model), strategies[pin.strategy])
		cfg.Adaptive = pin.strategy == "adaptive"
		if pin.scenario != "polite" {
			cfg.Scenario = pin.scenario
		}
		res := Run(cfg)
		if res.Counters != pin.want || res.TotalMs != pin.totalMs {
			t.Errorf("model %d, %s, %s: charged %+v for %v ms, want %+v for %v ms",
				pin.model, pin.scenario, pin.strategy, res.Counters, res.TotalMs, pin.want, pin.totalMs)
		}
	}
}
