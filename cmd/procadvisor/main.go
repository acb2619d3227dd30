// Command procadvisor answers the paper's practical question (section 8):
// given a database-procedure workload, which processing strategy should
// the system use? It evaluates the analytic cost model at the described
// parameters, prints the full cost table, and recommends the cheapest
// strategy along with the paper's implementation-order advice.
//
// Usage:
//
//	procadvisor -P 0.1 -f 0.0001          # small objects, few updates
//	procadvisor -P 0.8 -f 0.01 -model 2
//
// Measured hostile-workload evidence (BENCH_scenarios.json) is read by
// procstat, which re-derives every recorded verdict from its rows
// (docs/SCENARIOS.md).
package main

import (
	"flag"
	"fmt"

	"dbproc/internal/costmodel"
)

func main() {
	p := costmodel.Default()
	flag.Float64Var(&p.N, "N", p.N, "tuples in R1")
	flag.Float64Var(&p.F, "f", p.F, "selectivity of C_f (object size: fN tuples per P1 result)")
	flag.Float64Var(&p.F2, "f2", p.F2, "selectivity of C_f2")
	flag.Float64Var(&p.N1, "N1", p.N1, "P1 procedures")
	flag.Float64Var(&p.N2, "N2", p.N2, "P2 procedures")
	flag.Float64Var(&p.SF, "sf", p.SF, "sharing factor")
	flag.Float64Var(&p.Z, "Z", p.Z, "locality skew")
	flag.Float64Var(&p.CInval, "cinval", p.CInval, "invalidation cost (ms)")
	upd := flag.Float64("P", 0.5, "update probability")
	modelFlag := flag.Int("model", 1, "procedure model: 1 or 2")
	flag.Parse()

	p = p.WithUpdateProbability(*upd)
	model := costmodel.Model(*modelFlag)
	w := costmodel.BestStrategy(model, p)

	fmt.Printf("Workload: %s, P = %.2f, objects ~%.0f tuples (P1) / ~%.0f (P2), %0.f procedures\n\n",
		model, *upd, p.F*p.N, p.FStar()*p.N, p.NumProcs())
	fmt.Printf("%-22s %12s %9s\n", "strategy", "ms/access", "vs best")
	for _, s := range costmodel.Strategies {
		marker := ""
		if s == w.Best {
			marker = "  <- recommended"
		}
		fmt.Printf("%-22s %12.1f %8.2fx%s\n", s, w.Costs[s], w.Costs[s]/w.Costs[w.Best], marker)
	}

	fmt.Println()
	switch w.Best {
	case costmodel.AlwaysRecompute:
		fmt.Println("Updates dominate: caching buys nothing here. Always Recompute is also")
		fmt.Println("the simplest to implement — the paper's first-choice baseline.")
	case costmodel.CacheInvalidate:
		fmt.Println("Cache and Invalidate wins; keep C_inval small (battery-backed memory or")
		fmt.Println("logged invalidations), or its advantage evaporates (paper Figure 4).")
	case costmodel.UpdateCacheAVM, costmodel.UpdateCacheRVM:
		fmt.Println("Update Cache wins: objects are large or updates are rare enough that")
		fmt.Println("incremental maintenance beats recomputation. Beware: its cost rises")
		fmt.Println("steeply if the update probability grows (paper Figure 5) — Cache and")
		fmt.Println("Invalidate is the safer choice if P may exceed ~0.7.")
	}
	if ci := w.Costs[costmodel.CacheInvalidate]; w.Best != costmodel.CacheInvalidate &&
		ci <= 2*w.Costs[w.Best] {
		fmt.Println()
		fmt.Printf("Note: Cache and Invalidate is within %.1fx of the winner; the paper\n", ci/w.Costs[w.Best])
		fmt.Println("recommends it as the pragmatic second implementation step.")
	}
}
