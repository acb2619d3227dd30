package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbproc/internal/experiments"
)

// TestAdviseScenariosGolden: the checked-in BENCH_scenarios.json must
// pass procstat's trust step — every recorded winner verdict
// re-derivable from the row evidence shipped beside it.
func TestAdviseScenariosGolden(t *testing.T) {
	if _, err := os.Stat("../../BENCH_scenarios.json"); err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	if err := readScenarios("../../BENCH_scenarios.json", ""); err != nil {
		t.Fatalf("golden report rejected: %v", err)
	}
	if err := readScenarios("../../BENCH_scenarios.json", "adversarial-inval"); err != nil {
		t.Fatalf("golden report rejected for one scenario: %v", err)
	}
	if err := readScenarios("../../BENCH_scenarios.json", "no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestAdviseScenariosRejectsTamperedVerdict: a report whose recorded
// winner cannot be re-derived from its own rows must be refused, not
// advised from.
func TestAdviseScenariosRejectsTamperedVerdict(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_scenarios.json")
	if err != nil {
		t.Skipf("benchmark artifact not present: %v", err)
	}
	var rep experiments.ScenarioBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	// Swap one verdict's winner and runner-up: the rows no longer back it.
	tampered := false
	for i, v := range rep.Verdicts {
		if v.Winner != v.RunnerUp && v.RunnerUp != "" {
			rep.Verdicts[i].Winner, rep.Verdicts[i].RunnerUp = v.RunnerUp, v.Winner
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no verdict to tamper with")
	}
	path := filepath.Join(t.TempDir(), "tampered.json")
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	err = readScenarios(path, "")
	if err == nil {
		t.Fatal("tampered report accepted")
	}
	if !strings.Contains(err.Error(), "does not match its evidence") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// readScenarios runs procstat on a scenarios report, restricted to one
// scenario when only is set.
func readScenarios(path, only string) error {
	if only != "" {
		return run([]string{"-run", only, path}, io.Discard)
	}
	return run([]string{path}, io.Discard)
}
