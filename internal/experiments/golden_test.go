package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"dbproc/internal/dbtest"
)

// TestGoldenObsBench: the checked-in BENCH_obs.json must regenerate from
// its own recorded (scale, seed), byte for byte as `procbench -obs-json`
// encodes it. Every section is simulated.
func TestGoldenObsBench(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	data, err := os.ReadFile("../../BENCH_obs.json")
	if err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	var golden ObsBenchReport
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("BENCH_obs.json: %v", err)
	}
	got := ObsBench(context.Background(), Options{Scale: golden.Scale, SimSeed: golden.Seed})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	want, have := data, buf.Bytes()
	if !bytes.Equal(have, want) {
		i := 0
		for i < len(have) && i < len(want) && have[i] == want[i] {
			i++
		}
		from := max(0, i-200)
		t.Fatalf("BENCH_obs.json does not regenerate; first difference at byte %d:\n got  ...%s\n want ...%s",
			i, have[from:min(len(have), i+200)], want[from:min(len(want), i+200)])
	}
}

// TestGoldenScenarioVerdicts is the golden-verdict regression gate: the
// checked-in BENCH_scenarios.json must regenerate from its own recorded
// (scale, seed), byte for byte as `procbench -scenarios-json` encodes it —
// every row, every per-seed total, and every winner verdict. A
// deliberate change to the workload, the scenario catalog or the cost
// model shows up here as a diff to commit; an accidental one shows up as
// a failure.
func TestGoldenScenarioVerdicts(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	data, err := os.ReadFile("../../BENCH_scenarios.json")
	if err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	var golden ScenarioBenchReport
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("BENCH_scenarios.json: %v", err)
	}
	if len(golden.Scenarios) < 7 || len(golden.Verdicts) != len(golden.Scenarios)*2 {
		t.Fatalf("artifact too small: %d scenarios, %d verdicts", len(golden.Scenarios), len(golden.Verdicts))
	}
	got := ScenarioBench(context.Background(), Options{Scale: golden.Scale, SimSeed: golden.Seed})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	want, have := data, buf.Bytes()
	if !bytes.Equal(have, want) {
		i := 0
		for i < len(have) && i < len(want) && have[i] == want[i] {
			i++
		}
		from := max(0, i-200)
		t.Fatalf("BENCH_scenarios.json does not regenerate; first difference at byte %d:\n got  ...%s\n want ...%s",
			i, have[from:min(len(have), i+200)], want[from:min(len(want), i+200)])
	}
}
