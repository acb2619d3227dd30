package proc_test

import (
	"testing"

	"dbproc/internal/costmodel"
	"dbproc/internal/proc"
	"dbproc/internal/query"
	"dbproc/internal/sim"
	"dbproc/internal/storage"
)

// recomputeJoinWorld is the recompute-scan benchmark workload's world at a
// tenth of its procedures: the paper's relations (N = 100 000, 4000-byte
// pages), model-2 join procedures only, f = 0.01, under the given strategy.
// Computing a procedure's value scans a 1 000-tuple band of R1, probes R2
// and R3 once per tuple, a batch of 32 at a time, over ~540 pages, and the
// C_f2 screen keeps a tenth: ~208 µs of plan execution on the 2-vCPU
// benchmark host (252 µs probing a tuple at a time).
func recomputeJoinWorld(strategy costmodel.Strategy) (proc.Strategy, *storage.Pager, []int) {
	p := costmodel.Default()
	p.F = 0.01
	p.N1, p.N2 = 0, 20
	w := sim.Build(sim.Config{Params: p, Model: costmodel.Model2, Strategy: strategy, Seed: 1})
	return w.Strategy(), w.SessionPager(0), w.ProcIDs()
}

// checkJoinAllocations holds one computation of a join procedure's value
// to the allocations of the tuples it returns, a block of 32 at a time,
// and of a fixed number of per-call objects (the plan's row blocks and
// closures, the result slice's growth): never one per band tuple scanned,
// per join output screened away, per page read, or per tuple returned.
func checkJoinAllocations(t *testing.T, id int, compute func() [][]byte) {
	t.Helper()
	var result [][]byte
	allocs := testing.AllocsPerRun(5, func() { result = compute() })
	if len(result) < 50 {
		t.Fatalf("procedure %d returns %d tuples, want about 100 of a 1000-tuple band", id, len(result))
	}
	if limit := float64(len(result)/32 + 40); allocs > limit {
		t.Errorf("procedure %d: %v allocations for %d result tuples, want at most %v", id, allocs, len(result), limit)
	}
}

// TestRecomputeJoinAccessAllocations guards an Always Recompute access,
// which collects through query.Run.
func TestRecomputeJoinAccessAllocations(t *testing.T) {
	strat, pg, ids := recomputeJoinWorld(costmodel.AlwaysRecompute)
	for _, id := range ids[:5] {
		checkJoinAllocations(t, id, func() [][]byte {
			pg.BeginOp()
			return strat.Access(pg, id)
		})
	}
}

// TestColdFillMaterializeAllocations guards the computation inside a Cache
// and Invalidate cold fill, which collects through query.Materialize. (The
// fill around it also allocates for the i-locks it sets and the cache
// pages it writes.)
func TestColdFillMaterializeAllocations(t *testing.T) {
	strat, pg, ids := recomputeJoinWorld(costmodel.CacheInvalidate)
	for _, id := range ids[:5] {
		d := proc.DefinitionOf(strat.(*proc.CacheInvalidate), id)
		checkJoinAllocations(t, id, func() [][]byte {
			pg.BeginOp()
			_, recs := query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: pg.Meter(), Pager: pg})
			return recs
		})
	}
}

// BenchmarkRecomputeJoinAccess is the kernel of the recompute-scan
// workload: one Always Recompute access of a model-2 join procedure.
func BenchmarkRecomputeJoinAccess(b *testing.B) {
	strat, pg, ids := recomputeJoinWorld(costmodel.AlwaysRecompute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.BeginOp()
		strat.Access(pg, ids[i%len(ids)])
	}
}
