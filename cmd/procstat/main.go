// Command procstat renders the traces procsim writes: per-operation
// latency histograms, per-component cost breakdowns, and a model-drift
// summary, all in simulated milliseconds.
//
// Usage:
//
//	procsim -trace out.jsonl            # record a trace
//	procstat out.jsonl                  # summarize it
//	procstat -run ci out.jsonl          # one strategy run only
//	procstat -span op.query out.jsonl   # one span name only
//	procstat -chrome t.json out.jsonl   # export for chrome://tracing
//	procstat -flight dump.jsonl         # render a flight-recorder dump
//	procstat -scenarios BENCH_scenarios.json    # hostile-workload winner regions
//
// Multiple trace files aggregate: histograms and drift entries accumulate
// across all of them, so a directory of per-seed traces summarizes as one
// distribution.
//
// With -flight the inputs are flight-recorder dumps instead (written by
// procsim -flight on a watchdog/violation/fault trigger, or fetched from
// a live /events endpoint): procstat renders the event timeline — marking
// the serializability oracle's minimal non-serializable window when the
// dump carries a violation — plus any lock-contention records.
//
// With -scenarios the inputs are BENCH_scenarios.json reports (written by
// procbench -scenarios-json): procstat renders the hostile-workload
// winner-region table — which strategy wins each scenario × model cell,
// by what margin, and whether the hostile conditions flipped the polite
// workload's verdict — followed by the per-strategy cost grid
// (docs/SCENARIOS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dbproc/internal/experiments"
	"dbproc/internal/obs"
	"dbproc/internal/telemetry"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "procstat: "+format+"\n", args...)
	os.Exit(1)
}

// splitName mirrors the tracer's span-name convention: the component is
// the part before the first dot.
func splitName(name string) (comp, event string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

func main() {
	runFilter := flag.String("run", "", "restrict to one run label (e.g. ci, uc-rvm)")
	spanFilter := flag.String("span", "", "restrict histograms to one span name (e.g. op.query)")
	chromePath := flag.String("chrome", "", "also write a Chrome trace-event file (chrome://tracing, perfetto)")
	flight := flag.Bool("flight", false, "treat inputs as flight-recorder dumps and render event timelines")
	scenarios := flag.Bool("scenarios", false, "treat inputs as BENCH_scenarios.json reports and render winner-region tables")
	topK := flag.Int("topk", 10, "locks shown per contention report in -flight mode (0 = all)")
	driftThreshold := flag.Float64("drift-threshold", obs.DefaultDriftThreshold,
		"relative error above which measured cost is flagged as drifting from the model")
	flag.Parse()

	if flag.NArg() == 0 {
		fail("no trace files (usage: procstat [flags] trace.jsonl...)")
	}

	if *flight {
		renderFlight(flag.Args(), *topK)
		return
	}
	if *scenarios {
		renderScenarios(flag.Args())
		return
	}

	merged := &obs.Trace{}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fail("%v", err)
		}
		tr, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			fail("%s: %v", path, err)
		}
		merged.Spans = append(merged.Spans, tr.Spans...)
		merged.Runs = append(merged.Runs, tr.Runs...)
		merged.Breakdowns = append(merged.Breakdowns, tr.Breakdowns...)
	}

	keepRun := func(run string) bool { return *runFilter == "" || run == *runFilter }

	// Run summaries and the drift monitor.
	drift := obs.NewDrift(*driftThreshold)
	nRuns := 0
	fmt.Printf("%-12s %-22s %-8s %8s %8s %12s %12s %6s\n",
		"run", "strategy", "model", "queries", "updates", "measured", "predicted", "cold")
	for _, r := range merged.Runs {
		if !keepRun(r.Run) {
			continue
		}
		nRuns++
		drift.Record(r.Strategy, r.Model, r.MeasuredMsPerQuery, r.PredictedMsPerQuery)
		cold := "n/a"
		if r.ColdFraction != nil {
			cold = fmt.Sprintf("%.2f", *r.ColdFraction)
		}
		fmt.Printf("%-12s %-22s %-8s %8d %8d %9.1f ms %9.1f ms %6s\n",
			r.Run, r.Strategy, r.Model, r.Queries, r.Updates,
			r.MeasuredMsPerQuery, r.PredictedMsPerQuery, cold)
	}
	if nRuns == 0 {
		fmt.Println("(no run records)")
	}

	// Per-span latency histograms, keyed component.event like the live
	// registry.
	reg := obs.NewRegistry()
	nSpans := 0
	for _, sp := range merged.Spans {
		if !keepRun(sp.Run) {
			continue
		}
		if *spanFilter != "" && sp.Name != *spanFilter {
			continue
		}
		nSpans++
		comp, event := splitName(sp.Name)
		reg.Observe(comp, event, sp.DurMs)
	}
	if nSpans > 0 {
		fmt.Printf("\nper-operation latency, %d spans (simulated ms):\n\n", nSpans)
		reg.Render(os.Stdout)
	}

	// Per-component breakdowns.
	for _, bd := range merged.Breakdowns {
		if !keepRun(bd.Run) {
			continue
		}
		fmt.Printf("\nbreakdown [%s]:\n", bd.Run)
		obs.RenderBreakdownRecord(os.Stdout, bd)
	}

	if nRuns > 0 {
		fmt.Println()
		drift.Render(os.Stdout)
	}

	if *chromePath != "" {
		var spans []obs.SpanRecord
		for _, sp := range merged.Spans {
			if keepRun(sp.Run) {
				spans = append(spans, sp)
			}
		}
		f, err := os.Create(*chromePath)
		if err != nil {
			fail("%v", err)
		}
		if err := obs.WriteChromeTrace(f, spans); err != nil {
			f.Close()
			fail("writing chrome trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("\nchrome trace written to %s\n", *chromePath)
	}
}

// renderScenarios renders hostile-workload scenario benchmark reports:
// the winner-region table first — one row per scenario × model with the
// winning strategy, its margin over the runner-up, the caching-only
// winner by ledger evidence, and a FLIP mark where hostile traffic
// dethrones the polite workload's winner — then the full per-strategy
// cost grid the verdicts were derived from.
func renderScenarios(paths []string) {
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		var rep experiments.ScenarioBenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			fail("%s: %v", path, err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s: scale=%g seed=%d seeds/cell=%d scenarios=%d\n\n",
			path, rep.Scale, rep.Seed, rep.SeedsPerCell, len(rep.Scenarios))

		fmt.Printf("%-18s %-8s %-22s %8s %-22s %-22s %5s\n",
			"scenario", "model", "winner", "margin", "runner-up", "caching winner", "")
		for _, v := range rep.Verdicts {
			flip := ""
			if v.Flipped {
				flip = "FLIP"
			}
			fmt.Printf("%-18s %-8s %-22s %7.1f%% %-22s %-22s %5s\n",
				v.Scenario, v.Model, v.Winner, v.MarginPct, v.RunnerUp, v.CachingWinner, flip)
		}
		fmt.Println(`margin is the runner-up's mean cost over the winner's; FLIP marks scenarios
whose winner differs from the polite baseline's for the same model.`)

		fmt.Printf("\n%-18s %-8s %-22s %10s %12s %12s %8s\n",
			"scenario", "model", "strategy", "ms/query", "total ms", "ledger ms", "wasted")
		for _, r := range rep.Rows {
			ledger, wasted := "-", "-"
			if r.LedgerEventMs != nil {
				ledger = fmt.Sprintf("%.1f", *r.LedgerEventMs)
			}
			if r.WastedWorkMs != nil {
				wasted = fmt.Sprintf("%.1f", *r.WastedWorkMs)
			}
			fmt.Printf("%-18s %-8s %-22s %10.1f %12.1f %12s %8s\n",
				r.Scenario, r.Model, r.Strategy, r.MsPerQuery, r.TotalMs, ledger, wasted)
		}
	}
}

// renderFlight renders flight-recorder dumps: each dump's header, its
// event timeline — rows whose commit sequence the serializability oracle
// reported blocked are flagged with "*", aligning the minimal
// non-serializable window against the schedule that produced it — and
// any lock-contention records riding in the dump.
func renderFlight(paths []string, topK int) {
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fail("%v", err)
		}
		d, err := telemetry.ReadDump(f)
		f.Close()
		if err != nil {
			fail("%s: %v", path, err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s:\n", path)
		var dropped int64
		for _, h := range d.Headers {
			dropped = h.Dropped
			when := ""
			if h.StartUnixNs > 0 {
				when = ", recorder started " + time.Unix(0, h.StartUnixNs).UTC().Format(time.RFC3339)
			}
			fmt.Printf("dump reason %q: %d events, %d dropped%s\n", h.Reason, h.Events, h.Dropped, when)
		}

		violations := d.Violations()
		blocked := map[int]bool{}
		for _, v := range violations {
			for _, s := range v.Seqs {
				blocked[s] = true
			}
		}
		var mark func(telemetry.Event) bool
		if len(blocked) > 0 {
			mark = func(ev telemetry.Event) bool { return ev.Seq >= 0 && blocked[ev.Seq] }
			fmt.Println("rows marked * belong to the minimal non-serializable window")
		}
		telemetry.WriteTimeline(os.Stdout, d.Events, dropped, mark)

		for _, v := range violations {
			fmt.Printf("\nserializability violation (blocked seqs %v):\n%s\n", v.Seqs, v.Detail)
		}
		for _, cr := range d.Contention {
			fmt.Println()
			telemetry.RenderContention(os.Stdout, cr, topK)
		}
	}
}
