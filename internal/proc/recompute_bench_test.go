package proc_test

import (
	"testing"

	"dbproc/internal/costmodel"
	"dbproc/internal/proc"
	"dbproc/internal/sim"
	"dbproc/internal/storage"
)

// recomputeJoinWorld is the recompute-scan benchmark workload's world at a
// tenth of its procedures: the paper's relations (N = 100 000, 4000-byte
// pages), model-2 join procedures only, f = 0.01, Always Recompute. An
// access scans a 1 000-tuple band of R1, probes R2 and R3 once per tuple
// over ~540 pages, and the C_f2 screen keeps a tenth.
func recomputeJoinWorld() (proc.Strategy, *storage.Pager, []int) {
	p := costmodel.Default()
	p.F = 0.01
	p.N1, p.N2 = 0, 20
	w := sim.Build(sim.Config{Params: p, Model: costmodel.Model2, Strategy: costmodel.AlwaysRecompute, Seed: 1})
	return w.Strategy(), w.SessionPager(0), w.ProcIDs()
}

// TestRecomputeJoinAccessAllocations: a recomputed access allocates for
// the tuples it returns and for a fixed number of per-call objects (the
// plan's scratch tuples and closures, the result slice's growth), never
// per band tuple scanned, per join output screened away, or per page read.
func TestRecomputeJoinAccessAllocations(t *testing.T) {
	strat, pg, ids := recomputeJoinWorld()
	for _, id := range ids[:5] {
		var result [][]byte
		allocs := testing.AllocsPerRun(5, func() {
			pg.BeginOp()
			result = strat.Access(pg, id)
		})
		if len(result) < 50 {
			t.Fatalf("procedure %d returns %d tuples, want about 100 of a 1000-tuple band", id, len(result))
		}
		if limit := float64(len(result) + 32); allocs > limit {
			t.Errorf("procedure %d: %v allocations for %d result tuples, want at most %v", id, allocs, len(result), limit)
		}
	}
}

// BenchmarkRecomputeJoinAccess is the kernel of the recompute-scan
// workload: one Always Recompute access of a model-2 join procedure.
func BenchmarkRecomputeJoinAccess(b *testing.B) {
	strat, pg, ids := recomputeJoinWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.BeginOp()
		strat.Access(pg, ids[i%len(ids)])
	}
}
