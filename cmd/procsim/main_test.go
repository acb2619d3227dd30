package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbproc/internal/artifact"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
)

// small is a workload of 40 ops over a 600-tuple world: every mode runs
// it in well under a second.
var small = []string{"-N", "600", "-f", "0.0133", "-N1", "3", "-N2", "3", "-k", "15", "-q", "25"}

// procsim runs the command on small plus args and returns its exit
// status, stdout and stderr.
func procsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(append([]string(nil), small...), args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs procsim and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := procsim(t, args...)
	if code != 0 {
		t.Fatalf("procsim %s exited %d: %s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// shortNames are the run labels of the four strategies.
func shortNames() []string {
	var names []string
	for _, s := range costmodel.Strategies {
		names = append(names, s.Short())
	}
	return names
}

// TestClientsTraceCarriesRunRecords: a multi-session in-process trace
// holds, for every strategy, the run record the drift monitor reads, the
// cost breakdown and the contention record beside its spans: one root op
// span per committed op, plus the strategy's child spans, each of whose
// parents is a span of the same run.
func TestClientsTraceCarriesRunRecords(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	trace := filepath.Join(t.TempDir(), "c.jsonl")
	mustRun(t, "-clients", "2", "-trace", trace)
	a, err := artifact.Load(trace)
	if err != nil {
		t.Fatal(err)
	}
	runs, breakdowns, contention := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, r := range a.Runs {
		runs[r.Run] = r.Queries+r.Updates == 40 && r.MeasuredMsPerQuery > 0 && r.PredictedMsPerQuery > 0
	}
	for _, b := range a.Breakdowns {
		breakdowns[b.Run] = len(b.Components) > 0
	}
	for _, c := range a.Contention {
		contention[c.Run] = true
	}
	ids := map[string]map[int64]bool{}
	roots, children := map[string]int{}, map[string]int{}
	for _, sp := range a.Spans {
		if ids[sp.Run] == nil {
			ids[sp.Run] = map[int64]bool{}
		}
		ids[sp.Run][sp.ID] = true
		if sp.Parent != 0 {
			if !ids[sp.Run][sp.Parent] {
				t.Errorf("run %q: span %d (%s) has parent %d, no earlier span of the run", sp.Run, sp.ID, sp.Name, sp.Parent)
			}
			children[sp.Run]++
		} else if sp.Name == "op.query" || sp.Name == "op.update" {
			roots[sp.Run]++
		}
	}
	for _, run := range shortNames() {
		if !runs[run] || !breakdowns[run] || !contention[run] || roots[run] != 40 || children[run] == 0 {
			t.Errorf("run %q: run record %v, breakdown %v, contention %v, %d root op spans (want 40), %d child spans (want some)",
				run, runs[run], breakdowns[run], contention[run], roots[run], children[run])
		}
	}
}

// TestServedTraceAndLedger: a served run writes its run records to -trace
// and the worlds' ledgers to -ledger, and both load.
func TestServedTraceAndLedger(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	dir := t.TempDir()
	trace, ledger := filepath.Join(dir, "s.jsonl"), filepath.Join(dir, "l.jsonl")
	mustRun(t, "-serve", "-trace", trace, "-ledger", ledger)
	for _, path := range []string{trace, ledger} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty file", filepath.Base(path), err)
		}
	}
	a, err := artifact.Load(trace, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 4 || len(a.Ledgers) != 4 {
		t.Fatalf("loaded %d run records and %d ledgers, want 4 of each", len(a.Runs), len(a.Ledgers))
	}
}

// cellRow is the part of a -json row the identity test compares.
type cellRow struct {
	Run               string  `json:"run"`
	Measured          float64 `json:"measured_ms_per_query"`
	MatchesSequential *bool   `json:"matches_sequential"`
}

func jsonRows(t *testing.T, out string) []cellRow {
	t.Helper()
	var doc struct{ Runs []cellRow }
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("%v in %s", err, out)
	}
	return doc.Runs
}

// TestServedRowMatchesSequential: a 1-client served cell reports the
// sequential cell's measured cost per query, and says so.
func TestServedRowMatchesSequential(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	seq := jsonRows(t, mustRun(t, "-json"))
	srv := jsonRows(t, mustRun(t, "-json", "-serve"))
	if len(seq) != 4 || len(srv) != 4 {
		t.Fatalf("%d sequential and %d served rows, want 4 each", len(seq), len(srv))
	}
	for i := range seq {
		if srv[i].Run != seq[i].Run || srv[i].Measured != seq[i].Measured {
			t.Errorf("served %s measured %v ms per query, sequential %s %v", srv[i].Run, srv[i].Measured, seq[i].Run, seq[i].Measured)
		}
		if ok := srv[i].MatchesSequential; ok == nil || !*ok {
			t.Errorf("served %s: matches_sequential = %v", srv[i].Run, ok)
		}
	}
}

// TestRefusedFlags: a flag a mode cannot honour exits 2 and names the
// flag, rather than being dropped.
func TestRefusedFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"think", []string{"-think", "1"}},
		{"think", []string{"-serve", "-think", "1"}},
		{"critpath", []string{"-critpath"}},
		{"flight", []string{"-flight", "f.jsonl"}},
		{"flight", []string{"-connect", "127.0.0.1:1", "-flight", "f.jsonl"}},
		{"listen", []string{"-connect", "127.0.0.1:1", "-listen", "127.0.0.1:0"}},
		{"breakdown", []string{"-serve", "-breakdown"}},
		{"workers", []string{"-clients", "2", "-workers", "2"}},
		{"workers", []string{"-serve", "-workers", "2"}},
	} {
		code, _, errOut := procsim(t, c.args...)
		if code != 2 || !strings.Contains(errOut, "-"+c.flag+" does not apply") {
			t.Errorf("procsim %s: exit %d, stderr %q; want 2 naming -%s", strings.Join(c.args, " "), code, errOut, c.flag)
		}
	}
}
