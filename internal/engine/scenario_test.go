package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/obs"
	"dbproc/internal/sim"
)

// scenarioConfig is testConfig with a hostile scenario attached. The
// R2-update mix is kept: scenario updates that are not adversarial still
// split between R1 and R2, so both maintenance paths run.
func scenarioConfig(scenario string, strat costmodel.Strategy, model costmodel.Model, seed int64, k, q int) sim.Config {
	cfg := testConfig(strat, model, seed, k, q)
	cfg.Scenario = scenario
	return cfg
}

// TestScenarioClientsOneMatchesSequential: the standing 1-client
// byte-identity invariant must survive every catalog scenario — one
// client through the engine reproduces the sequential simulator's
// counters and simulated cost exactly.
func TestScenarioClientsOneMatchesSequential(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	scenarios := []string{"hot-key-storm", "nested-batched", "flash-crowd", "adversarial-inval"}
	if testing.Short() {
		scenarios = scenarios[:2]
	}
	for _, scenario := range scenarios {
		for _, strat := range []costmodel.Strategy{costmodel.CacheInvalidate, costmodel.UpdateCacheAVM} {
			t.Run(fmt.Sprintf("%s/%v", scenario, strat), func(t *testing.T) {
				cfg := scenarioConfig(scenario, strat, costmodel.Model2, 51, 12, 20)

				seq := sim.Run(cfg)
				e := New(cfg, Options{Clients: 1, RecordHistory: true})
				got := e.Run(context.Background())

				if got.Queries != seq.Queries || got.Updates != seq.Updates {
					t.Fatalf("op mix %d/%d, sequential %d/%d",
						got.Queries, got.Updates, seq.Queries, seq.Updates)
				}
				if got.Counters != seq.Counters {
					t.Fatalf("counters diverge:\n engine     %v\n sequential %v",
						got.Counters, seq.Counters)
				}
				if got.SimTotalMs != seq.TotalMs {
					t.Fatalf("simulated cost %v, sequential %v", got.SimTotalMs, seq.TotalMs)
				}
			})
		}
	}
}

// TestScenarioRunReplayable: a scenario run is a pure function of
// (scenario, seed) — rebuilding and rerunning yields identical results,
// and the op stream itself is reproducible from the config alone.
func TestScenarioRunReplayable(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	cfg := scenarioConfig("storm-adversarial", costmodel.CacheInvalidate, costmodel.Model1, 77, 10, 16)
	a := sim.Run(cfg)
	b := sim.Run(cfg)
	if a.TotalMs != b.TotalMs || a.Counters != b.Counters || a.TuplesReturned != b.TuplesReturned {
		t.Fatalf("scenario run not replayable:\n a %v\n b %v", a.Counters, b.Counters)
	}
	ops1 := sim.Build(cfg).WorkloadOps()
	ops2 := sim.Build(cfg).WorkloadOps()
	if !reflect.DeepEqual(ops1, ops2) {
		t.Fatal("scenario op stream differs across builds of the same config")
	}
}

// TestScenarioOracleAdversarial is the adversarial-invalidation soak:
// 8 clients hammering the densest i-lock band, with the serializability
// oracle certifying every history (scripts/verify.sh runs it under
// -race in tier 3).
func TestScenarioOracleAdversarial(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	scenarios := []string{"adversarial-inval", "storm-adversarial"}
	if testing.Short() {
		scenarios = scenarios[:1]
	}
	for _, scenario := range scenarios {
		for _, strat := range oracleStrategies {
			t.Run(fmt.Sprintf("%s/%v", scenario, strat), func(t *testing.T) {
				cfg := scenarioConfig(scenario, strat, costmodel.Model2, 2000, 8, 8)
				e := New(cfg, Options{Clients: 8, RecordHistory: true, ThinkMeanMs: 0.2})
				res := e.Run(context.Background())
				if len(res.History) != 16 {
					t.Fatalf("history holds %d ops, want 16", len(res.History))
				}
				rep := CheckSerializable(cfg, res.History, 0)
				if !rep.Serializable {
					t.Fatalf("adversarial history not serializable (exhausted=%v, %d states):\n%s",
						rep.Exhausted, rep.StatesExplored, rep.Window)
				}
			})
		}
	}
}

// TestScenarioConcurrentConsistent: hostile scenarios with bulk updates
// and nested calls must leave every cached procedure value equal to a
// from-scratch recompute, at any client count.
func TestScenarioConcurrentConsistent(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	for _, scenario := range []string{"bulk-load", "nested-naive", "slow-consumers"} {
		for _, strat := range oracleStrategies {
			t.Run(fmt.Sprintf("%s/%v", scenario, strat), func(t *testing.T) {
				cfg := scenarioConfig(scenario, strat, costmodel.Model2, 123, 10, 16)
				e := New(cfg, Options{Clients: 4, ThinkMeanMs: 0.1})
				e.Run(context.Background())
				w := e.World()
				for _, id := range w.ProcIDs() {
					if !bytes.Equal(Digest(w.Access(id)), Digest(w.RecomputeOracle(id))) {
						t.Errorf("procedure %d inconsistent after %s", id, scenario)
					}
				}
			})
		}
	}
}

// TestScenarioPhaseLabels: on a scenario workload, committed-op spans
// must carry the op's schedule phase name, the per-phase commit counters
// must sum to the total, and a polite workload must stay label-free.
func TestScenarioPhaseLabels(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	cfg := scenarioConfig("hot-key-storm", costmodel.CacheInvalidate, costmodel.Model1, 9, 10, 20)
	tr := obs.NewTracer()
	cfg.Tracer = tr
	e := New(cfg, Options{Clients: 2})
	e.Run(context.Background())

	names := map[string]bool{}
	for _, p := range e.World().Schedule().Phases {
		names[p.Name] = true
	}
	labelled := 0
	for _, sp := range tr.Spans() {
		ph, ok := sp.Attrs["phase"].(string)
		if !ok {
			continue
		}
		labelled++
		if !names[ph] {
			t.Fatalf("span %s carries unknown phase %q (schedule has %v)", sp.Name, ph, names)
		}
	}
	if labelled == 0 {
		t.Fatal("no span carried a phase attribute on a scenario workload")
	}
	var phaseSum, total float64
	for _, m := range e.TelemetryMetrics() {
		switch m.Name {
		case "dbproc_phase_ops_committed_total":
			if !names[m.Labels["phase"]] {
				t.Fatalf("metric phase %q not in schedule", m.Labels["phase"])
			}
			phaseSum += m.Value
		case "dbproc_ops_committed_total":
			total = m.Value
		}
	}
	if phaseSum != total || total == 0 {
		t.Fatalf("per-phase commits %v != total %v", phaseSum, total)
	}

	// Polite run: no phase attrs, no per-phase series.
	polite := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 9, 10, 20)
	ptr := obs.NewTracer()
	polite.Tracer = ptr
	pe := New(polite, Options{Clients: 1})
	pe.Run(context.Background())
	for _, sp := range ptr.Spans() {
		if _, ok := sp.Attrs["phase"]; ok {
			t.Fatal("polite workload span carries a phase attribute")
		}
	}
	for _, m := range pe.TelemetryMetrics() {
		if m.Name == "dbproc_phase_ops_committed_total" {
			t.Fatal("polite workload exports per-phase series")
		}
	}
}
