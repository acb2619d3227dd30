package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dbproc/internal/artifact"
	"dbproc/internal/experiments"
)

// scenarioReport renders a hostile-workload scenario report
// (docs/SCENARIOS.md): the winner-region table — one row per scenario ×
// model with the winning strategy, its margin over the runner-up, the
// caching-only winner by ledger evidence, and a FLIP mark where hostile
// traffic dethrones the polite workload's winner — then the per-strategy
// cost grid the verdicts were derived from. Every verdict shown must be
// re-derivable from the rows shipped beside it, or the report is refused.
// only, when set, restricts the report to one scenario.
func scenarioReport(w io.Writer, doc artifact.Document, only string) error {
	var rep experiments.ScenarioBenchReport
	dec := json.NewDecoder(bytes.NewReader(doc.Data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("%s: not a scenarios report: %w", doc.Name, err)
	}
	if len(rep.Verdicts) == 0 {
		return fmt.Errorf("%s: no verdicts", doc.Name)
	}
	keep := func(scenario string) bool { return only == "" || scenario == only }
	var verdicts []experiments.ScenarioVerdict
	for _, v := range rep.Verdicts {
		if keep(v.Scenario) {
			verdicts = append(verdicts, v)
		}
	}
	if len(verdicts) == 0 {
		return fmt.Errorf("%s: scenario %q not in report (have %v)", doc.Name, only, rep.Scenarios)
	}

	fmt.Fprintf(w, "\n%s: scale=%g seed=%d seeds/cell=%d scenarios=%d\n\n",
		doc.Name, rep.Scale, rep.Seed, rep.SeedsPerCell, len(rep.Scenarios))
	fmt.Fprintf(w, "%-18s %-8s %-22s %8s %-22s %-22s %5s\n",
		"scenario", "model", "winner", "margin", "runner-up", "caching winner", "")
	for _, v := range verdicts {
		flip := ""
		if v.Flipped {
			flip = "FLIP"
		}
		fmt.Fprintf(w, "%-18s %-8s %-22s %7.1f%% %-22s %-22s %5s\n",
			v.Scenario, v.Model, v.Winner, v.MarginPct, v.RunnerUp, v.CachingWinner, flip)
	}
	fmt.Fprintln(w, `margin is the runner-up's mean cost over the winner's; FLIP marks scenarios
whose winner differs from the polite baseline's for the same model.`)

	fmt.Fprintf(w, "\n%-18s %-8s %-22s %10s %12s %12s %8s\n",
		"scenario", "model", "strategy", "ms/query", "total ms", "ledger ms", "wasted")
	for _, r := range rep.Rows {
		if !keep(r.Scenario) {
			continue
		}
		ledger, wasted := "-", "-"
		if r.LedgerEventMs != nil {
			ledger = fmt.Sprintf("%.1f", *r.LedgerEventMs)
		}
		if r.WastedWorkMs != nil {
			wasted = fmt.Sprintf("%.1f", *r.WastedWorkMs)
		}
		fmt.Fprintf(w, "%-18s %-8s %-22s %10.1f %12.1f %12s %8s\n",
			r.Scenario, r.Model, r.Strategy, r.MsPerQuery, r.TotalMs, ledger, wasted)
	}

	for _, v := range verdicts {
		var rows []experiments.ScenarioBenchRow
		for _, r := range rep.Rows {
			if r.Scenario == v.Scenario && r.Model == v.Model {
				rows = append(rows, r)
			}
		}
		got := experiments.DeriveScenarioVerdict(v.Scenario, v.Model, rows)
		if got.Winner != v.Winner || got.CachingWinner != v.CachingWinner {
			return fmt.Errorf("%s: %s/%s: recorded verdict (%s, caching %s) does not match its evidence (%s, caching %s)",
				doc.Name, v.Scenario, v.Model, v.Winner, v.CachingWinner, got.Winner, got.CachingWinner)
		}
	}
	fmt.Fprintf(w, "\nall %d verdict(s) re-derived from their row evidence and confirmed.\n", len(verdicts))
	return nil
}
