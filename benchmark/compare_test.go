package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "access_p50_us", Unit: "us", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.05}
	tight := func(center float64) []float64 {
		return []float64{center * 0.995, center, center * 1.005, center * 0.998, center * 1.002}
	}
	noisy := []float64{80, 100, 120, 90, 115}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(101), "within bound"},
		{"slower latency", lower, tight(100), tight(110), "REGRESSED"},
		{"faster latency", lower, tight(100), tight(90), "improved"},
		{"less throughput", higher, tight(1000), tight(900), "REGRESSED"},
		{"more throughput", higher, tight(1000), tight(1100), "improved"},
		{"noise hides a change", lower, noisy, []float64{85, 105, 125, 95, 118}, "unresolved"},
		{"noisy but every run better", lower, noisy, []float64{60, 70, 75, 65, 72}, "improved"},
		{"single runs", lower, []float64{100}, []float64{120}, "REGRESSED"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if worse, _ := verdict(higher, tight(1000), tight(900)); worse < 0.09 || worse > 0.11 {
		t.Errorf("throughput down 10%% reads as %.3f worse", worse)
	}
}

func writeRuns(t *testing.T, path string, host hostFacts, quick bool, opsPerS ...float64) {
	t.Helper()
	f := &resultFile{Host: host, Quick: quick}
	for i, v := range opsPerS {
		f.Runs = append(f.Runs, &result{Workload: "hot-read", Seed: int64(i + 1), Correct: true,
			Metrics: map[string]value{"ops_per_s": {Value: v, Unit: "ops/s", N: 1000}}})
	}
	if err := writeJSON(path, f); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	host := hostFacts{Cores: 2, GOMAXPROCS: 2, Go: "go1.24.0", Kernel: "Linux 6"}
	writeRuns(t, a, host, false, 10_000, 10_050, 9_950)
	writeRuns(t, b, host, false, 7_000, 7_040, 6_960) // 30% down: beyond any bound the contract allows
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "hot-read") && strings.Contains(l, "ops_per_s") {
			line = l
		}
	}
	for _, want := range []string{"10000", "7000", "+30.0%", fmt.Sprintf("%.0f%%", 100*endToEnd[0].Bound), "REGRESSED", "(3/3"} {
		if !strings.Contains(line, want) {
			t.Errorf("row %q lacks %q", line, want)
		}
	}
	if !strings.Contains(out.String(), "missing from one file") {
		t.Errorf("metrics absent from the files are not reported:\n%s", out.String())
	}

	other := host
	other.Cores = 8
	writeRuns(t, b, other, false, 7_000)
	if err := compareFiles(&out, a, b); err == nil || !strings.Contains(err.Error(), "across hosts") {
		t.Errorf("files of two hosts compared: %v", err)
	}
	writeRuns(t, b, host, true, 7_000)
	if err := compareFiles(&out, a, b); err == nil || !strings.Contains(err.Error(), "-quick") {
		t.Errorf("a -quick file compared: %v", err)
	}
}

func TestAppendResultsKeepsOneHostAndOneMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	run := []*result{{Workload: "hot-read", Correct: true, Metrics: map[string]value{}}}
	if err := appendResults(path, false, run); err != nil {
		t.Fatal(err)
	}
	if err := appendResults(path, false, run); err != nil {
		t.Fatal(err)
	}
	f, err := readResultFile(path)
	if err != nil || len(f.Runs) != 2 || f.Host != thisHost() {
		t.Fatalf("after two appends: %+v, %v", f, err)
	}
	if err := appendResults(path, true, run); err == nil {
		t.Error("a -quick run was appended to a file of full runs")
	}
}
