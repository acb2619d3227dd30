package sim

import (
	"testing"

	"dbproc/internal/costmodel"
)

// TestFullScaleModelAgreement runs the paper's exact default parameters
// (N = 100,000, 200 procedures) with a longer operation stream (k = q =
// 400, so the run reaches the steady state the closed forms describe) and
// requires the measured cost per query to land within ±35% of the analytic
// model for every strategy — the headline validation that the
// implementation and the formulas describe the same system.
//
// The known residual: the simulator measures Cache and Invalidate ~10-15%
// below the model, because the model evaluates the invalidation
// probability 1−(1−f)^(G·2l) at the MEAN inter-access gap G = X; the
// function is concave in G, so the expectation over random gaps is lower
// (Jensen's inequality). See EXPERIMENTS.md.
func TestFullScaleModelAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	p := costmodel.Default()
	p.K, p.Q = 400, 400
	for _, m := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
		for _, s := range costmodel.Strategies {
			res := Run(Config{Params: p, Model: m, Strategy: s, Seed: 1})
			ratio := res.MsPerQuery / res.PredictedMs
			if ratio < 0.65 || ratio > 1.35 {
				t.Errorf("%v %v: measured %.0f ms/query vs predicted %.0f (ratio %.2f)",
					m, s, res.MsPerQuery, res.PredictedMs, ratio)
			}
		}
	}
}

// TestBuildAllocations bounds what opening a default-scale uc-rvm model-1
// world allocates. The loader writes R1 straight into its leaves and
// reuses one tuple for R2 and R3, and the Rete fill submits the scanned
// records themselves, so what is left is per page and per node, not per
// tuple: about 35 600 allocations where the build used to make 282 293.
// The bound leaves a little headroom and no room for a per-tuple
// allocation to come back (N = 100 000).
func TestBuildAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale build")
	}
	cfg := Config{Params: costmodel.Default(), Model: costmodel.Model1, Strategy: costmodel.UpdateCacheRVM, Seed: 1}
	const bound = 37_000
	if got := testing.AllocsPerRun(2, func() { Build(cfg) }); got > bound {
		t.Errorf("Build allocated %.0f times, bound %d", got, bound)
	}
}
