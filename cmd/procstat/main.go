// Command procstat is the one reader of every artifact the system writes
// and of every running process. It reads each file with one loader
// (artifact.Set.Add) and renders a section for each record kind found:
//
//   - span traces (procsim -trace): the run table, per-operation latency
//     histograms, per-run span totals (self time: each nested span
//     counted once), cost breakdowns and a model-drift summary;
//   - lock-contention records: top-K tables;
//   - flight-recorder dumps: the event timeline with the minimal
//     non-serializable window marked, detector and fault lines, and the
//     top lock-wait blockers by wait class;
//   - cache-efficacy ledgers (procsim -ledger): per run the dominant
//     bottleneck, wasted work and net benefit, then a strategy verdict;
//   - wire traces (client.Tracer, procserved -trace): the sum-to-total
//     check and the cross-process merge;
//   - scenario reports (BENCH_scenarios.json): the winner-region table,
//     every verdict re-derived from its rows.
//
// An http:// or https:// operand is a live source (procsim -listen,
// procserved -telemetry): one GET of /metrics and one of the newest
// -topk /events render its gauges, latency quantiles, critical-path
// split, blockers, served request table, contention and event tail.
//
// Usage:
//
//	procstat out.jsonl                  # summarize a trace
//	procstat -run ci out.jsonl          # one strategy run (or one scenario) only
//	procstat -span op.query out.jsonl   # one span name only
//	procstat -chrome t.json out.jsonl   # export for chrome://tracing
//	procstat ledger.jsonl flight.jsonl  # diagnose a concurrent run
//	procstat -chrome merged.json client.jsonl server.jsonl   # merge a wire trace
//	procstat BENCH_scenarios.json       # hostile-workload winner regions
//	watch -n 1 procstat http://127.0.0.1:9090   # watch a running process
//
// procstat exits 1 on a record it does not know, a span whose parent is
// missing or whose children outcost it, a wire span whose segments do
// not sum to its wall time, a scenario verdict its rows do not
// reproduce, or a live GET that fails. Multiple operands aggregate, so
// per-seed traces summarize as one distribution. docs/DIAGNOSIS.md and
// docs/TELEMETRY.md describe the sections.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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
		return errors.New("no input files (usage: procstat [flags] FILE|URL...)")
	}
	a := &artifact.Set{}
	var self []float64 // each span's self time, parallel to a.Spans
	var live []scrape
	for _, operand := range fs.Args() {
		if strings.HasPrefix(operand, "http://") || strings.HasPrefix(operand, "https://") {
			s, err := readLive(operand, o.topK, a)
			if err != nil {
				return err
			}
			live = append(live, s)
			continue
		}
		data, err := os.ReadFile(operand)
		if err != nil {
			return err
		}
		n := len(a.Spans)
		if err := a.Add(operand, data); err != nil {
			return err
		}
		st, err := selfTimes(a.Spans[n:])
		if err != nil {
			return fmt.Errorf("%s: %w", operand, err)
		}
		self = append(self, st...)
	}
	if len(a.Spans)+len(a.Runs)+len(a.Breakdowns)+len(a.WireSpans)+len(a.Dumps)+
		len(a.Contention)+len(a.Ledgers)+len(a.Documents) == 0 {
		return errors.New("the input files hold no records")
	}
	if o.chrome != "" && (len(a.Spans) > 0) == (len(a.WireSpans) > 0) {
		return errors.New("-chrome: the inputs must hold simulated spans or wire spans, not both or neither")
	}

	if len(a.Spans)+len(a.Runs)+len(a.Breakdowns) > 0 {
		if err := traceReport(w, a, self, o); err != nil {
			return err
		}
	}
	for _, s := range live {
		fmt.Fprintln(w)
		scrapeReport(w, s, o.topK)
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

// traceReport renders the span-trace sections: the run table, the span
// view, the breakdowns and the drift summary, and the Chrome export of
// the spans. self holds each of a.Spans' self time.
func traceReport(w io.Writer, a *artifact.Set, self []float64, o options) error {
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
	var selfMs []float64
	for i, sp := range a.Spans {
		if o.keepRun(sp.Run) && (o.span == "" || sp.Name == o.span) {
			spans = append(spans, sp)
			selfMs = append(selfMs, self[i])
		}
	}
	spanView(w, spans, selfMs, o.topK)

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

// selfTimes charges each span its duration minus its children's, so a
// run's self times sum to its root spans' total: the run's cost, each
// nested span counted once. spans are one file's, where a span id is
// unique within its run. A span whose parent is missing from its run,
// or whose children cost more than it does, makes the trace malformed.
func selfTimes(spans []obs.SpanRecord) ([]float64, error) {
	type key struct {
		run string
		id  int64
	}
	at := make(map[key]int, len(spans))
	for i, sp := range spans {
		at[key{sp.Run, sp.ID}] = i
	}
	self := make([]float64, len(spans))
	for i, sp := range spans {
		self[i] += sp.DurMs
		if sp.Parent == 0 {
			continue
		}
		p, ok := at[key{sp.Run, sp.Parent}]
		if !ok {
			return nil, fmt.Errorf("run %q: span %d (%s) names parent %d, which is not in the run",
				sp.Run, sp.ID, sp.Name, sp.Parent)
		}
		self[p] -= sp.DurMs
	}
	for i, sp := range spans {
		// Children's costs are sums of the same simulated charges as
		// their parent's, so only rounding may take a self time below 0.
		if self[i] < -1e-9*math.Max(1, sp.DurMs) {
			return nil, fmt.Errorf("run %q: span %d (%s) lasts %g ms but its children cost %g ms",
				sp.Run, sp.ID, sp.Name, sp.DurMs, sp.DurMs-self[i])
		}
		self[i] = math.Max(self[i], 0)
	}
	return self, nil
}

// spanView renders span records in one pass: a latency histogram per
// span name, in first-seen order, then per-run totals — spans,
// simulated ms, spans carrying lock-wait blame edges — with each run's
// top span names by total cost. Totals charge spans[i] its self[i].
func spanView(w io.Writer, spans []obs.SpanRecord, self []float64, topK int) {
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
	hists := map[string]*obs.Histogram{}
	var names []string
	var runs []*runTotal
	idx := map[string]*runTotal{}
	for i, sp := range spans {
		h := hists[sp.Name]
		if h == nil {
			h = obs.NewHistogram(nil)
			hists[sp.Name] = h
			names = append(names, sp.Name)
		}
		h.Observe(sp.DurMs)
		rt, ok := idx[sp.Run]
		if !ok {
			rt = &runTotal{run: sp.Run, byName: map[string]float64{}}
			idx[sp.Run] = rt
			runs = append(runs, rt)
		}
		rt.spans++
		rt.durMs += self[i]
		if _, seen := rt.byName[sp.Name]; !seen {
			rt.names = append(rt.names, sp.Name)
		}
		rt.byName[sp.Name] += self[i]
		if _, blamed := sp.Attrs["blame_sessions"]; blamed {
			rt.blame++
		}
	}
	fmt.Fprintf(w, "\nper-operation latency, %d spans (simulated ms):\n\n", len(spans))
	for _, name := range names {
		fmt.Fprintf(w, "%s:\n", name)
		hists[name].Render(w)
	}
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
