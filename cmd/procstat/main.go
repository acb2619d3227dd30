// Command procstat is the one reader of every artifact the system writes.
// It loads its files with one loader (artifact.Load), merges them, and renders
// a section for each record kind it finds:
//
//   - span traces (procsim -trace): the run table, per-operation latency
//     histograms and per-run span totals, per-component cost breakdowns
//     and a model-drift summary, all in simulated milliseconds;
//   - lock-contention records, from a trace or a flight dump: top-K
//     tables;
//   - flight-recorder dumps (procsim -flight, an auto-dump, or a
//     procmon -tail of /events): the event timeline with the
//     serializability oracle's minimal non-serializable window marked,
//     detector and fault lines, and the top lock-wait blockers by wait
//     class;
//   - cache-efficacy ledgers (procsim -ledger): per run the dominant
//     bottleneck, wasted work and net benefit, then a strategy verdict
//     per (model, clients, seed) from ledger evidence alone;
//   - wire traces (client.Tracer, procserved -trace): the sum-to-total
//     check and the cross-process merge;
//   - scenario reports (BENCH_scenarios.json): the winner-region table
//     and cost grid, with every verdict re-derived from its rows.
//
// Usage:
//
//	procsim -trace out.jsonl            # record a trace
//	procstat out.jsonl                  # summarize it
//	procstat -run ci out.jsonl          # one strategy run (or one scenario) only
//	procstat -span op.query out.jsonl   # one span name only
//	procstat -chrome t.json out.jsonl   # export for chrome://tracing
//	procstat ledger.jsonl flight.jsonl  # diagnose a concurrent run
//	procstat -chrome merged.json client.jsonl server.jsonl   # merge a wire trace
//	procstat BENCH_scenarios.json       # hostile-workload winner regions
//
// procstat exits 1 if a file holds a record it does not know, a server
// wire span whose segments do not sum to its wall time, or a scenario
// verdict its own rows do not reproduce. Multiple files aggregate:
// histograms and drift entries accumulate across all of them, so a
// directory of per-seed traces summarizes as one distribution.
// docs/DIAGNOSIS.md describes the diagnosis sections.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dbproc/internal/artifact"
	"dbproc/internal/obs"
	"dbproc/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "procstat: %v\n", err)
		os.Exit(1)
	}
}

// options are procstat's flags.
type options struct {
	run, span, chrome string
	topK              int
	driftThreshold    float64
}

// keepRun reports whether a record labelled run passes the -run filter.
func (o options) keepRun(run string) bool { return o.run == "" || run == o.run }

// run renders every section the loaded files hold to w.
func run(args []string, w io.Writer) error {
	var o options
	fs := flag.NewFlagSet("procstat", flag.ContinueOnError)
	fs.StringVar(&o.run, "run", "", "restrict to one run label (e.g. ci, uc-rvm) or one scenario (e.g. hot-key-storm)")
	fs.StringVar(&o.span, "span", "", "restrict histograms to one span name (e.g. op.query)")
	fs.StringVar(&o.chrome, "chrome", "", "also write a Chrome trace-event file (chrome://tracing, perfetto): the spans, or the merged wire trace")
	fs.IntVar(&o.topK, "topk", 10, "rows per contention table, blocker list and leaderboard (0 = all)")
	fs.Float64Var(&o.driftThreshold, "drift-threshold", obs.DefaultDriftThreshold,
		"relative error above which measured cost is flagged as drifting from the model")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no input files (usage: procstat [flags] FILE...)")
	}
	a, err := artifact.Load(fs.Args()...)
	if err != nil {
		return err
	}
	if len(a.Spans)+len(a.Runs)+len(a.Breakdowns)+len(a.WireSpans)+len(a.Dumps)+
		len(a.Contention)+len(a.Ledgers)+len(a.Documents) == 0 {
		return errors.New("the input files hold no records")
	}
	if o.chrome != "" && (len(a.Spans) > 0) == (len(a.WireSpans) > 0) {
		return errors.New("-chrome: the inputs must hold simulated spans or wire spans, not both or neither")
	}

	if len(a.Spans)+len(a.Runs)+len(a.Breakdowns) > 0 {
		if err := traceReport(w, a, o); err != nil {
			return err
		}
	}
	for _, cr := range a.Contention {
		if o.keepRun(cr.Run) {
			fmt.Fprintln(w)
			telemetry.RenderContention(w, cr, o.topK)
		}
	}
	for i := range a.Dumps {
		fmt.Fprintln(w)
		flightReport(w, &a.Dumps[i], o.topK)
	}
	if len(a.Ledgers) > 0 {
		fmt.Fprintln(w)
		ledgerReport(w, a.Ledgers, o.topK)
		verdictReport(w, ledgerVerdicts(a.Ledgers))
	}
	if len(a.WireSpans) > 0 {
		if err := wireReport(w, a.WireSpans, o.chrome); err != nil {
			return err
		}
	}
	for _, doc := range a.Documents {
		if err := scenarioReport(w, doc, o.run); err != nil {
			return err
		}
	}
	return nil
}

// splitName mirrors the tracer's span-name convention: the component is
// the part before the first dot.
func splitName(name string) (comp, event string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// traceReport renders the span-trace sections: the run table, the span
// view, the breakdowns and the drift summary, and the Chrome export of
// the spans.
func traceReport(w io.Writer, a *artifact.Set, o options) error {
	drift := obs.NewDrift(o.driftThreshold)
	nRuns := 0
	fmt.Fprintf(w, "%-12s %-22s %-8s %8s %8s %12s %12s %6s\n",
		"run", "strategy", "model", "queries", "updates", "measured", "predicted", "cold")
	for _, r := range a.Runs {
		if !o.keepRun(r.Run) {
			continue
		}
		nRuns++
		drift.Record(r.Strategy, r.Model, r.MeasuredMsPerQuery, r.PredictedMsPerQuery)
		cold := "n/a"
		if r.ColdFraction != nil {
			cold = fmt.Sprintf("%.2f", *r.ColdFraction)
		}
		fmt.Fprintf(w, "%-12s %-22s %-8s %8d %8d %9.1f ms %9.1f ms %6s\n",
			r.Run, r.Strategy, r.Model, r.Queries, r.Updates,
			r.MeasuredMsPerQuery, r.PredictedMsPerQuery, cold)
	}
	if nRuns == 0 {
		fmt.Fprintln(w, "(no run records)")
	}

	var spans []obs.SpanRecord
	for _, sp := range a.Spans {
		if o.keepRun(sp.Run) && (o.span == "" || sp.Name == o.span) {
			spans = append(spans, sp)
		}
	}
	spanView(w, spans, o.topK)

	for _, bd := range a.Breakdowns {
		if o.keepRun(bd.Run) {
			fmt.Fprintf(w, "\nbreakdown [%s]:\n", bd.Run)
			obs.RenderBreakdownRecord(w, bd)
		}
	}
	if nRuns > 0 {
		fmt.Fprintln(w)
		drift.Render(w)
	}
	if o.chrome == "" {
		return nil
	}
	return writeChrome(w, o.chrome, func(f io.Writer) error { return obs.WriteChromeTrace(f, spans) })
}

// spanView renders span records in one pass: latency histograms keyed
// component.event like the live registry, then per-run totals — spans,
// simulated ms, spans carrying lock-wait blame edges — with each run's
// top span names by total cost.
func spanView(w io.Writer, spans []obs.SpanRecord, topK int) {
	if len(spans) == 0 {
		return
	}
	type runTotal struct {
		run          string
		spans, blame int
		durMs        float64
		byName       map[string]float64
		names        []string
	}
	reg := obs.NewRegistry()
	var runs []*runTotal
	idx := map[string]*runTotal{}
	for _, sp := range spans {
		comp, event := splitName(sp.Name)
		reg.Observe(comp, event, sp.DurMs)
		rt, ok := idx[sp.Run]
		if !ok {
			rt = &runTotal{run: sp.Run, byName: map[string]float64{}}
			idx[sp.Run] = rt
			runs = append(runs, rt)
		}
		rt.spans++
		rt.durMs += sp.DurMs
		if _, seen := rt.byName[sp.Name]; !seen {
			rt.names = append(rt.names, sp.Name)
		}
		rt.byName[sp.Name] += sp.DurMs
		if _, blamed := sp.Attrs["blame_sessions"]; blamed {
			rt.blame++
		}
	}
	fmt.Fprintf(w, "\nper-operation latency, %d spans (simulated ms):\n\n", len(spans))
	reg.Render(w)
	fmt.Fprintf(w, "\nspan totals by run:\n")
	for _, rt := range runs {
		fmt.Fprintf(w, "  run %q: %d spans, %.1f ms simulated, %d span(s) carrying lock-wait blame edges\n",
			rt.run, rt.spans, rt.durMs, rt.blame)
		sort.SliceStable(rt.names, func(i, j int) bool { return rt.byName[rt.names[i]] > rt.byName[rt.names[j]] })
		for _, name := range rt.names[:limit(topK, len(rt.names))] {
			fmt.Fprintf(w, "    %-20s %10.1f ms\n", name, rt.byName[name])
		}
	}
}

// wireReport checks every server wire span's segments against its wall
// time — a violation fails the run — and merges the client and server
// halves, writing the Chrome trace when chrome names a file.
func wireReport(w io.Writer, spans []obs.WireSpanRecord, chrome string) error {
	if errs := obs.CheckWireSpans(spans); len(errs) > 0 {
		return fmt.Errorf("wire check: %w", errors.Join(errs...))
	}
	fmt.Fprintf(w, "\nwire check: %d spans, server segments sum to wall\n", len(spans))
	merge := func(f io.Writer) error {
		st, err := obs.MergeWireTrace(f, spans)
		if err != nil {
			return fmt.Errorf("merging wire spans: %w", err)
		}
		fmt.Fprintf(w, "wire trace: merged %d client + %d server spans, %d pairs, %d flow arrows, clock offset %dns\n",
			st.ClientSpans, st.ServerSpans, st.Pairs, st.Arrows, st.MeanOffsetNs)
		return nil
	}
	if chrome == "" {
		return merge(io.Discard)
	}
	return writeChrome(w, chrome, merge)
}

// writeChrome creates path, fills it with write and reports it.
func writeChrome(w io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nchrome trace written to %s\n", path)
	return nil
}

// limit caps a row count at k, where k <= 0 means no cap.
func limit(k, n int) int {
	if k <= 0 || k > n {
		return n
	}
	return k
}
