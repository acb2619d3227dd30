package experiments

import (
	"context"
	"testing"
)

// TestConcurrentBenchShape runs the concurrent benchmark at heavy scale
// reduction and checks the report's structural invariants: full ladder
// coverage per strategy/model, sequential identity on every one-client
// row, and positive throughput everywhere.
func TestConcurrentBenchShape(t *testing.T) {
	opt := Options{Scale: 50, SimSeed: 3, Clients: 2}
	rep := ConcurrentBench(context.Background(), opt)

	// 4 strategies x 2 models x ladder {1, 2}, plus one storm-adversarial
	// contention row per strategy/model at the ladder's top rung.
	if want := 4*2*2 + 4*2; len(rep.Rows) != want {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), want)
	}
	scenarioRows := 0
	for _, row := range rep.Rows {
		if row.Scenario != "" {
			scenarioRows++
			if row.Scenario != "storm-adversarial" {
				t.Errorf("%s/%s: scenario row %q, want storm-adversarial", row.Strategy, row.Model, row.Scenario)
			}
			if row.Clients != 2 {
				t.Errorf("%s/%s: scenario row at clients=%d, want top rung 2", row.Strategy, row.Model, row.Clients)
			}
		}
		if row.ThroughputOps <= 0 {
			t.Errorf("%s/%s clients=%d: throughput %v", row.Strategy, row.Model, row.Clients, row.ThroughputOps)
		}
		if row.Clients == 1 {
			if !row.MatchesSequential {
				t.Errorf("%s/%s: one-client row diverges from sequential run", row.Strategy, row.Model)
			}
			if row.Speedup != 1 {
				t.Errorf("%s/%s: one-client speedup %v, want 1", row.Strategy, row.Model, row.Speedup)
			}
		}
		if row.SimTotalMs <= 0 {
			t.Errorf("%s/%s clients=%d: simulated cost %v", row.Strategy, row.Model, row.Clients, row.SimTotalMs)
		}
	}
	if scenarioRows != 4*2 {
		t.Errorf("report has %d scenario rows, want %d", scenarioRows, 4*2)
	}
}

// TestConcurrentBenchLadderCap checks opt.Clients trims and extends the
// ladder correctly.
func TestConcurrentBenchLadderCap(t *testing.T) {
	opt := Options{Scale: 50, SimSeed: 3, Clients: 3}
	rep := ConcurrentBench(context.Background(), opt)
	seen := map[int]bool{}
	for _, row := range rep.Rows {
		seen[row.Clients] = true
	}
	for _, want := range []int{1, 2, 3} {
		if !seen[want] {
			t.Errorf("ladder missing clients=%d: %v", want, seen)
		}
	}
	if seen[4] || seen[8] {
		t.Errorf("ladder not capped at 3: %v", seen)
	}
}
