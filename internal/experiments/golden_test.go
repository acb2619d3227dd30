package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbproc/internal/dbtest"
)

// checkGolden decodes the committed artifact at path into golden,
// regenerates the report from it and requires WriteReport's encoding of
// the result to equal the artifact byte for byte. It skips when the
// artifact is absent.
func checkGolden(t *testing.T, path string, golden any, regenerate func() any) {
	t.Helper()
	name := filepath.Base(path)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	if err := json.Unmarshal(want, golden); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, regenerate()); err != nil {
		t.Fatal(err)
	}
	if have := buf.Bytes(); !bytes.Equal(have, want) {
		i := 0
		for i < len(have) && i < len(want) && have[i] == want[i] {
			i++
		}
		from := max(0, i-200)
		t.Fatalf("%s does not regenerate; first difference at byte %d:\n got  ...%s\n want ...%s",
			name, i, have[from:min(len(have), i+200)], want[from:min(len(want), i+200)])
	}
}

// TestGoldenObsBench: the checked-in BENCH_obs.json must regenerate from
// its own recorded (scale, seed), byte for byte as `procbench -obs-json`
// encodes it. Every section is simulated.
func TestGoldenObsBench(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	var golden ObsBenchReport
	checkGolden(t, "../../BENCH_obs.json", &golden, func() any {
		return ObsBench(context.Background(), Options{Scale: golden.Scale, SimSeed: golden.Seed})
	})
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
	var golden ScenarioBenchReport
	checkGolden(t, "../../BENCH_scenarios.json", &golden, func() any {
		if len(golden.Scenarios) < 7 || len(golden.Verdicts) != len(golden.Scenarios)*2 {
			t.Fatalf("artifact too small: %d scenarios, %d verdicts", len(golden.Scenarios), len(golden.Verdicts))
		}
		return ScenarioBench(context.Background(), Options{Scale: golden.Scale, SimSeed: golden.Seed})
	})
}
