package sim

import (
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
	"dbproc/internal/query"
	"dbproc/internal/storage"
)

// TestLedgerBaselinesMeasureLoadedWorld: every entry's ledger baseline
// must be what one Always Recompute access of that procedure costs
// against the built world — its plan run on a fresh pager after Build —
// for every strategy and both models. A baseline measured before the
// load reaches the disk prices a scan of unwritten pages instead.
func TestLedgerBaselinesMeasureLoadedWorld(t *testing.T) {
	for _, m := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
		for _, s := range costmodel.Strategies {
			cfg := testConfig(m, s)
			cfg.Ledger = cache.NewLedger()
			w := Build(cfg)
			baselines := cfg.Ledger.Baselines()
			for _, id := range w.ProcIDs() {
				meter := metric.NewMeter(w.costs)
				query.Run(w.mgr.MustGet(id).Plan, &query.Ctx{Meter: meter, Pager: storage.NewPager(w.Disk(), meter)})
				if got, want := baselines[id], meter.Milliseconds(); got != want {
					t.Errorf("%s/%s proc %d: baseline %.1f ms, a recompute access costs %.1f ms", m, s, id, got, want)
				}
			}
		}
	}
}
