package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dbproc/internal/dbtest"
	"dbproc/internal/workload"
)

// TestScenarioBenchDeterministicAcrossWorkers: the scenario benchmark
// must render byte-identical reports for any worker count (the standing
// workers=1 ≡ workers=N contract).
func TestScenarioBenchDeterministicAcrossWorkers(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	opt := Options{Scale: 5, SimSeed: 1, Scenarios: []string{"hot-key-storm", "adversarial-inval"}}
	opt.Workers = 1
	a := ScenarioBench(context.Background(), opt)
	opt.Workers = 4
	b := ScenarioBench(context.Background(), opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("scenario benchmark differs between workers=1 and workers=4")
	}
}

// TestScenarioBenchShape checks the report grid is complete and the
// verdicts are internally consistent with their rows.
func TestScenarioBenchShape(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	opt := Options{Scale: 5, SimSeed: 1, Scenarios: []string{"flash-crowd", "nested-batched"}}
	rep := ScenarioBench(context.Background(), opt)

	wantScenarios := []string{PoliteScenario, "flash-crowd", "nested-batched"}
	if !reflect.DeepEqual(rep.Scenarios, wantScenarios) {
		t.Fatalf("scenario axis %v, want %v", rep.Scenarios, wantScenarios)
	}
	if want := len(wantScenarios) * 2 * 4; len(rep.Rows) != want {
		t.Fatalf("%d rows, want %d", len(rep.Rows), want)
	}
	if want := len(wantScenarios) * 2; len(rep.Verdicts) != want {
		t.Fatalf("%d verdicts, want %d", len(rep.Verdicts), want)
	}
	caching := map[string]bool{
		"Cache and Invalidate": true, "Update Cache (AVM)": true, "Update Cache (RVM)": true,
	}
	for _, row := range rep.Rows {
		if len(row.PerSeedTotalMs) != rep.SeedsPerCell {
			t.Fatalf("row %s/%s/%s has %d per-seed totals", row.Scenario, row.Model, row.Strategy, len(row.PerSeedTotalMs))
		}
		if row.Queries <= 0 {
			t.Fatalf("row %s/%s/%s ran no queries", row.Scenario, row.Model, row.Strategy)
		}
		if caching[row.Strategy] && row.LedgerEventMs == nil {
			t.Fatalf("caching row %s/%s/%s carries no ledger evidence", row.Scenario, row.Model, row.Strategy)
		}
		if !caching[row.Strategy] && row.LedgerEventMs != nil {
			t.Fatalf("non-caching row %s/%s/%s carries ledger evidence", row.Scenario, row.Model, row.Strategy)
		}
	}
	for _, v := range rep.Verdicts {
		if v.Winner == "" || v.RunnerUp == "" || v.CachingWinner == "" {
			t.Fatalf("verdict %s/%s incomplete: %+v", v.Scenario, v.Model, v)
		}
		if !caching[v.CachingWinner] {
			t.Fatalf("caching winner %q is not a caching strategy", v.CachingWinner)
		}
		if len(v.PerSeedWinners) != rep.SeedsPerCell || len(v.PerSeedCachingWinners) != rep.SeedsPerCell {
			t.Fatalf("verdict %s/%s per-seed winners incomplete: %+v", v.Scenario, v.Model, v)
		}
		if v.Scenario == PoliteScenario && v.Flipped {
			t.Fatal("polite baseline flipped from itself")
		}
		if v.PoliteWinner == "" {
			t.Fatalf("verdict %s/%s has no polite baseline", v.Scenario, v.Model)
		}
		if v.Flipped != (v.Scenario != PoliteScenario && v.Winner != v.PoliteWinner) {
			t.Fatalf("verdict %s/%s flip flag inconsistent", v.Scenario, v.Model)
		}
	}
}

// TestScenarioBenchVerdictMatchesRows re-derives every verdict from the
// report's rows alone — the same re-derivation procstat
// performs — and checks it reproduces the recorded winners.
func TestScenarioBenchVerdictMatchesRows(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	opt := Options{Scale: 5, SimSeed: 1, Scenarios: []string{"bulk-load", "storm-adversarial"}}
	rep := ScenarioBench(context.Background(), opt)
	for _, v := range rep.Verdicts {
		var rows []ScenarioBenchRow
		for _, r := range rep.Rows {
			if r.Scenario == v.Scenario && r.Model == v.Model {
				rows = append(rows, r)
			}
		}
		got := deriveVerdict(v.Scenario, v.Model, rows)
		if got.Winner != v.Winner || got.CachingWinner != v.CachingWinner ||
			!reflect.DeepEqual(got.PerSeedWinners, v.PerSeedWinners) ||
			!reflect.DeepEqual(got.PerSeedCachingWinners, v.PerSeedCachingWinners) {
			t.Fatalf("re-derived verdict diverges for %s/%s:\n got  %+v\n want %+v", v.Scenario, v.Model, got, v)
		}
	}
}

// TestScenarioListIncludesCatalog: with no filter, the benchmark sweeps
// the polite baseline plus the entire catalog.
func TestScenarioListIncludesCatalog(t *testing.T) {
	got := scenarioList(Options{})
	want := append([]string{PoliteScenario}, workload.Names()...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario list %v, want %v", got, want)
	}
	if len(want) < 7 {
		t.Fatalf("catalog too small: %v", want)
	}
}
