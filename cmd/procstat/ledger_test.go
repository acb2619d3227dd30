package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dbproc/internal/artifact"
	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/experiments"
	"dbproc/internal/sim"
)

// TestLedgerVerdictMatchesSimulatedWinner is the acceptance gate for the
// ledger verdict: regenerate the ledger evidence for the three caching
// strategies at 8 clients (the paper's defaults at scale 5, seed 1,
// 0.5 ms mean think time) and require that the winner procstat derives
// from ledger evidence alone matches the winner by the same runs'
// simulated totals, for both procedure models. The multi-client totals
// are schedule-dependent, so the ledger is judged against the runs it
// ledgered, never against a recorded number.
func TestLedgerVerdictMatchesSimulatedWinner(t *testing.T) {
	const (
		clients = 8
		seed    = 1
		thinkMs = 0.5
	)
	p := experiments.BenchParams(experiments.Options{Scale: 5})
	var buf bytes.Buffer
	simWinner := map[string]string{} // model name -> cheapest strategy by SimTotalMs
	simBest := map[string]float64{}
	for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
		for _, strat := range []costmodel.Strategy{
			costmodel.CacheInvalidate, costmodel.UpdateCacheAVM, costmodel.UpdateCacheRVM,
		} {
			cfg := sim.Config{Params: p, Model: model, Strategy: strat, Seed: seed}
			cfg.Ledger = cache.NewLedger()
			e := engine.New(cfg, engine.Options{Clients: clients, ThinkMeanMs: thinkMs})
			res := e.Run(context.Background())
			meta := cache.LedgerMeta{
				Strategy: strat.String(), Model: int(model), Clients: clients,
				Seed: seed, Queries: res.Queries, Updates: res.Updates,
				TotalMs: res.SimTotalMs,
			}
			if err := cache.WriteLedger(&buf, meta, cfg.Ledger); err != nil {
				t.Fatal(err)
			}
			mn := model.String()
			if best, ok := simBest[mn]; !ok || res.SimTotalMs < best {
				simBest[mn], simWinner[mn] = res.SimTotalMs, strat.String()
			}
		}
	}

	a := &artifact.Set{}
	if err := a.Add("ledger.jsonl", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	verdicts := ledgerVerdicts(a.Ledgers)
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdict groups, want 2 (one per model)", len(verdicts))
	}
	for _, v := range verdicts {
		model := costmodel.Model(v.Model).String()
		if len(v.Ranked) != 3 {
			t.Fatalf("%s: ranked %d strategies, want 3", model, len(v.Ranked))
		}
		if got := v.Winner(); got != simWinner[model] {
			t.Errorf("%s: ledger verdict %q, simulated-total winner %q\nranking: %+v",
				model, got, simWinner[model], v.Ranked)
		}
	}

	// The rendered report must carry the verdict.
	var out bytes.Buffer
	verdictReport(&out, verdicts)
	if txt := out.String(); !strings.Contains(txt, "winner by ledger evidence") {
		t.Errorf("verdict report missing winner marker:\n%s", txt)
	}
}

// TestBottleneck pins the dominant-bottleneck selection.
func TestBottleneck(t *testing.T) {
	name, ms := bottleneck(cache.LedgerStats{ComputeMs: 5, HitMs: 2, MaintainMs: 9, InvalMs: 1})
	if name != "maintenance" || ms != 9 {
		t.Errorf("bottleneck = %q %.1f, want maintenance 9.0", name, ms)
	}
	name, _ = bottleneck(cache.LedgerStats{ComputeMs: 5})
	if name != "recompute" {
		t.Errorf("bottleneck = %q, want recompute", name)
	}
}

// TestScenarioVerdictReproducesGolden closes the loop between the two
// verdict paths: for the adversarial-invalidation scenario it
// regenerates the 1-client ledger evidence for every caching strategy
// and golden seed, runs it through procstat's ledgerVerdicts ranking,
// and requires the per-seed winners to equal the
// per_seed_caching_winners recorded in BENCH_scenarios.json. One-client
// scenario runs are replayable from (scenario, seed) alone, so exact
// agreement is required — no schedule-variance allowance.
func TestScenarioVerdictReproducesGolden(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_scenarios.json")
	if err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	var rep experiments.ScenarioBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH_scenarios.json: %v", err)
	}

	const scenario = "adversarial-inval"
	models := []costmodel.Model{costmodel.Model1, costmodel.Model2}
	caching := []costmodel.Strategy{
		costmodel.CacheInvalidate, costmodel.UpdateCacheAVM, costmodel.UpdateCacheRVM,
	}
	p := experiments.ScenarioBenchParams(experiments.Options{Scale: rep.Scale})

	var buf bytes.Buffer
	for _, model := range models {
		for _, strat := range caching {
			for i := 0; i < rep.SeedsPerCell; i++ {
				cfg := sim.Config{
					Params: p, Model: model, Strategy: strat,
					Seed: rep.Seed + int64(i), Scenario: scenario,
				}
				cfg.Ledger = cache.NewLedger()
				res := sim.Run(cfg)
				meta := cache.LedgerMeta{
					Strategy: strat.String(), Model: int(model), Clients: 1,
					Seed: cfg.Seed, Queries: res.Queries, Updates: res.Updates,
					TotalMs: res.TotalMs,
				}
				if err := cache.WriteLedger(&buf, meta, cfg.Ledger); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a := &artifact.Set{}
	if err := a.Add("ledger.jsonl", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	verdicts := ledgerVerdicts(a.Ledgers)

	for _, model := range models {
		want, ok := rep.FindScenarioVerdict(scenario, model.String())
		if !ok {
			t.Fatalf("artifact has no %s verdict for %s", model, scenario)
		}
		if len(want.PerSeedCachingWinners) != rep.SeedsPerCell {
			t.Fatalf("artifact verdict %s/%s has %d per-seed caching winners, want %d",
				scenario, model, len(want.PerSeedCachingWinners), rep.SeedsPerCell)
		}
		for i := 0; i < rep.SeedsPerCell; i++ {
			seed := rep.Seed + int64(i)
			got := ""
			for _, v := range verdicts {
				if v.Model == int(model) && v.Clients == 1 && v.Seed == seed {
					got = v.Winner()
				}
			}
			if got == "" {
				t.Fatalf("no ledger verdict for %s seed %d", model, seed)
			}
			if got != want.PerSeedCachingWinners[i] {
				t.Errorf("%s seed %d: ledger evidence says %q, artifact says %q",
					model, seed, got, want.PerSeedCachingWinners[i])
			}
		}
	}
}
