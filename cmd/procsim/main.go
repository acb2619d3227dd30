// Command procsim runs one simulated workload against the executable
// system and prints the measured cost next to the analytic prediction,
// followed by a model-drift summary.
//
// Usage:
//
//	procsim                               # paper defaults, all strategies
//	procsim -strategy uc-avm -P 0.3       # one strategy at P = 0.3
//	procsim -model 2 -f 0.01 -N 50000     # tweak parameters
//	procsim -seeds 5 -workers 4           # average 5 seeds, 4 cells at a time
//	procsim -clients 8 -think 1           # 8 concurrent sessions (docs/CONCURRENCY.md)
//	procsim -scenario hot-key-storm       # hostile-workload scenario (docs/SCENARIOS.md)
//	procsim -serve -clients 4             # drive a loopback procserved over the wire (docs/SERVING.md)
//	procsim -connect 127.0.0.1:7141       # same, against an external procserved
//	procsim -clients 8 -listen :9090      # live /metrics, /debug/pprof, /events (docs/TELEMETRY.md)
//	procsim -clients 8 -flight dump.jsonl # flight dump on watchdog/violation/fault (see procstat)
//	procsim -ledger ledger.jsonl          # cache-efficacy ledger (see procstat)
//	procsim -breakdown                    # per-component cost tables
//	procsim -trace out.jsonl              # per-operation trace (see procstat)
//	procsim -json                         # machine-readable results
//
// Every run is a set of (strategy × seed) cells, and a cell runs in one of
// three modes: sequentially (sim.Run, the default), through -clients N > 1
// in-process engine sessions, or through a served bench world (-serve or
// -connect). Every cell reports the paper's measured and predicted cost
// per query — one table row, one drift entry, one -json row, one run
// record in the -trace file — and adds what its mode measures: sessions
// add wall clock and throughput, in-process sessions add latency, the
// critical path, lock blockers and contention, and a 1-client served cell
// adds the identity check against sim.Run.
//
// A flag applies in every mode or is refused with exit status 2: -think
// needs in-process sessions; -critpath and -flight need sessions (-flight
// and -listen a loopback server, not -connect); -breakdown is not
// reported by a served world; -workers fans out sequential cells only,
// because a session cell's wall clock is its measurement, so session
// cells run one at a time. Results — tables, JSON, trace and ledger files
// alike — are reduced in canonical (strategy, seed) order, so output is
// byte-identical for any worker count (see docs/PARALLEL.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/experiments"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/parallel"
	"dbproc/internal/server"
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
	"dbproc/internal/workload"
)

// runJSON is one (strategy, seed) cell's result in -json output, in every
// mode: the run record the drift monitor reads and the cost it summarizes,
// then what the cell's mode measures beyond it (absent otherwise).
type runJSON struct {
	obs.RunRecord
	Ratio          float64                     `json:"ratio"`
	TotalMs        float64                     `json:"total_ms"`
	TuplesReturned int                         `json:"tuples_returned"`
	Counters       obs.CountersJSON            `json:"counters"`
	Breakdown      map[string]obs.CountersJSON `json:"breakdown,omitempty"`
	// A session cell drove its workload through sessions: their count,
	// the committed ops and the wall clock they took.
	Clients       int     `json:"clients,omitempty"`
	Ops           int     `json:"ops,omitempty"`
	WallSec       float64 `json:"wall_sec,omitempty"`
	ThroughputOps float64 `json:"throughput_ops_per_sec,omitempty"`
	// An in-process session cell adds per-op latency, the top lock-wait
	// blockers and the lock-contention profile.
	WallLatency *obs.Summary                   `json:"wall_latency,omitempty"`
	SimLatency  *obs.Summary                   `json:"sim_latency,omitempty"`
	TopBlockers []engine.BlockerStat           `json:"top_blockers,omitempty"`
	Contention  []telemetry.LockContentionJSON `json:"contention,omitempty"`
	// CritPathNs totals the ops' wall-time segments under -critpath.
	CritPathNs map[string]int64 `json:"crit_path_ns,omitempty"`
	// MatchesSequential is a 1-client served cell's identity check: the
	// world's counters and simulated cost equal sim.Run's.
	MatchesSequential *bool `json:"matches_sequential,omitempty"`
}

// driftJSON is one drift-monitor entry in -json output.
type driftJSON struct {
	Strategy      string  `json:"strategy"`
	Model         string  `json:"model"`
	Runs          int     `json:"runs"`
	MeasuredMs    float64 `json:"measured_ms_per_query"`
	PredictedMs   float64 `json:"predicted_ms_per_query"`
	RelativeError float64 `json:"relative_error"`
	Drifting      bool    `json:"drifting"`
}

// cellOut is one cell's complete output, produced by the pool and
// consumed by the in-order reduction: its row, the cost breakdown (nil
// for a served cell, whose world reports none), an in-process cell's
// contention record, and its trace and ledger records pre-encoded into
// private buffers so both files stay byte-stable under -workers N.
type cellOut struct {
	row        runJSON
	bd         *metric.Breakdown
	costs      metric.Costs
	contention *telemetry.ContentionRecord
	trace      []byte
	ledger     []byte
}

// cellCfg names one cell: a strategy at a workload seed.
type cellCfg struct {
	strategy costmodel.Strategy
	seed     int64
}

// mode is how a cell drives its workload.
type mode int

const (
	sequential mode = iota // sim.Run on the world's own pager
	inProcess              // -clients N > 1 engine sessions
	served                 // a bench world over the wire (-serve, -connect)
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is procsim: it parses args, runs every cell and writes the report
// to stdout, returning the exit status — 2 for a flag a mode cannot
// honour, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("procsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := costmodel.Default()
	fs.Float64Var(&p.N, "N", p.N, "tuples in R1")
	fs.Float64Var(&p.F, "f", p.F, "selectivity of C_f")
	fs.Float64Var(&p.F2, "f2", p.F2, "selectivity of C_f2")
	fs.Float64Var(&p.N1, "N1", p.N1, "P1 procedures")
	fs.Float64Var(&p.N2, "N2", p.N2, "P2 procedures")
	fs.Float64Var(&p.K, "k", p.K, "update transactions")
	fs.Float64Var(&p.Q, "q", p.Q, "procedure accesses")
	fs.Float64Var(&p.L, "l", p.L, "tuples modified per update")
	fs.Float64Var(&p.SF, "sf", p.SF, "sharing factor")
	fs.Float64Var(&p.Z, "Z", p.Z, "locality skew")
	fs.Float64Var(&p.CInval, "cinval", p.CInval, "invalidation cost (ms)")
	upd := fs.Float64("P", -1, "update probability (overrides -k, keeping -q)")
	modelFlag := fs.Int("model", 1, "procedure model: 1 (2-way joins) or 2 (3-way)")
	strategyFlag := fs.String("strategy", "", "recompute | ci | uc-avm | uc-rvm (default: all)")
	scenario := fs.String("scenario", "", "hostile-workload scenario from the catalog (see docs/SCENARIOS.md; default: polite workload)")
	seed := fs.Int64("seed", 1, "workload seed")
	seeds := fs.Int("seeds", 1, "consecutive workload seeds per strategy (averaged in the drift table)")
	workers := fs.Int("workers", 0, "concurrent sequential cells (0 = one per CPU); output is identical for any value")
	clients := fs.Int("clients", 1, "concurrent client sessions (>1 runs each cell through the multi-session engine)")
	think := fs.Float64("think", 0, "mean per-session think time in ms (exponential; in-process sessions only)")
	serve := fs.Bool("serve", false, "drive the workload through a loopback procserved over the wire (docs/SERVING.md)")
	connect := fs.String("connect", "", "drive the workload against this external procserved address (implies -serve)")
	tracePath := fs.String("trace", "", "write a JSONL trace to this file (render with procstat)")
	ledgerPath := fs.String("ledger", "", "write a cache-efficacy ledger (JSONL) to this file (analyze with procstat; docs/DIAGNOSIS.md)")
	critpath := fs.Bool("critpath", false, "time I/O and recompute and decompose each op's wall time into lock-wait/IO/recompute/compute (sessions only; lock-wait blame is always reported)")
	listen := fs.String("listen", "", "serve /metrics, /debug/pprof and /events on this address (e.g. :9090) until interrupted")
	flightPath := fs.String("flight", "", "write a flight-recorder dump to this file if the run trips a telemetry trigger (sessions only)")
	breakdown := fs.Bool("breakdown", false, "print the per-component cost breakdown of each run (not served)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	driftThreshold := fs.Float64("drift-threshold", obs.DefaultDriftThreshold,
		"relative error above which measured cost is flagged as drifting from the model")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "procsim: "+format+"\n", a...)
		return 1
	}

	if *upd >= 0 {
		p = p.WithUpdateProbability(*upd)
	}
	model := costmodel.Model(*modelFlag)
	if *seeds < 1 {
		return fail("-seeds must be >= 1")
	}
	if *clients < 1 {
		*clients = 1
	}
	if *scenario != "" {
		if _, ok := workload.ByName(*scenario); !ok {
			return fail("unknown scenario %q; catalog: %s", *scenario, strings.Join(workload.Names(), ", "))
		}
	}

	m := sequential
	switch {
	case *serve || *connect != "":
		m = served
	case *clients > 1:
		m = inProcess
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, r := range []struct {
		flag    string
		refused bool
		why     string
	}{
		{"think", m != inProcess, "only in-process sessions (-clients > 1 without -serve) think"},
		{"critpath", m == sequential, "a sequential run has no wall-clock critical path; use -clients > 1 or -serve"},
		{"flight", m == sequential, "a sequential run records no flight events; use -clients > 1 or -serve"},
		{"flight", *connect != "", "the flight recorder of an external procserved is its own -flight"},
		{"listen", *connect != "", "the telemetry of an external procserved is its own -telemetry"},
		{"breakdown", m == served, "a served world reports no per-component breakdown"},
		{"workers", m != sequential, "session cells run one at a time: their wall clock is the measurement"},
	} {
		if set[r.flag] && r.refused {
			fmt.Fprintf(stderr, "procsim: -%s does not apply here: %s\n", r.flag, r.why)
			return 2
		}
	}

	var strategies []costmodel.Strategy
	if *strategyFlag == "" {
		strategies = costmodel.Strategies[:]
	} else {
		s, ok := costmodel.ParseStrategy(strings.ToLower(*strategyFlag))
		if !ok {
			return fail("unknown strategy %q (want recompute, ci, uc-avm or uc-rvm)", *strategyFlag)
		}
		strategies = []costmodel.Strategy{s}
	}

	// create opens an output file; no path, no file.
	create := func(path string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		return os.Create(path)
	}
	traceFile, err := create(*tracePath)
	if err != nil {
		return fail("%v", err)
	}
	defer traceFile.Close()
	ledgerFile, err := create(*ledgerPath)
	if err != nil {
		return fail("%v", err)
	}
	defer ledgerFile.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The live ops surface: a flight recorder feeding /events plus the
	// /metrics, /debug/vars and /debug/pprof endpoints (docs/TELEMETRY.md).
	var hub *telemetry.Hub
	var rec *telemetry.Recorder
	if *listen != "" || *flightPath != "" {
		rec = telemetry.NewRecorder(1 << 14)
		if *flightPath != "" {
			rec.SetAutoDumpFile(*flightPath)
		}
	}
	if *listen != "" {
		hub = telemetry.NewHub()
		hub.SetRecorder(rec)
		if _, err := hub.ListenAndServe(*listen); err != nil {
			return fail("%v", err)
		}
		defer hub.Close()
	}

	addr := *connect
	if m == served && addr == "" {
		// A loopback procserved for the run's duration; its worlds' engines
		// share the recorder, and it is the metrics source.
		srv := server.New(server.Options{Recorder: rec})
		a, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return fail("starting loopback procserved: %v", err)
		}
		addr = a
		if hub != nil {
			hub.SetSource(srv)
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
	}

	// One cell per (strategy, seed), in canonical order: strategy first,
	// then seed — the order every reduction below iterates in.
	var cellCfgs []cellCfg
	for _, s := range strategies {
		for i := 0; i < *seeds; i++ {
			cellCfgs = append(cellCfgs, cellCfg{strategy: s, seed: *seed + int64(i)})
		}
	}
	runLabel := func(c cellCfg) string {
		if *seeds == 1 {
			return c.strategy.Short()
		}
		return fmt.Sprintf("%s#%d", c.strategy.Short(), c.seed)
	}

	// runCell is the only thing a mode changes: how one cell runs.
	runCell := func(ctx context.Context, c cellCfg) (cellOut, error) {
		cfg := sim.Config{Params: p, Model: model, Strategy: c.strategy, Seed: c.seed, Scenario: *scenario}
		if ledgerFile != nil && m != served {
			cfg.Ledger = cache.NewLedger()
		}
		// A served world records no spans; the other modes trace into the
		// world's tracer.
		if traceFile != nil && m != served {
			cfg.Tracer = obs.NewTracer()
		}
		run := runLabel(c)
		var out cellOut
		switch m {
		case sequential:
			w := sim.Build(cfg)
			res := w.Run()
			out.row = newRow(run, cfg, res.Queries, res.Updates, res.TuplesReturned, res.TotalMs, res.Counters)
			out.row.ColdFraction = measured(res.ColdFraction)
			bd := w.Meter().Breakdown()
			out.bd, out.costs = &bd, w.Meter().Costs()

		case inProcess:
			// A recorder arms the always-on detectors: a p99-latency,
			// contention-share or wasted-work breach fires an EvDetector
			// event, which auto-dumps the flight ring (docs/DIAGNOSIS.md).
			e := engine.New(cfg, engine.Options{
				Clients: *clients, ThinkMeanMs: *think, Recorder: rec, CritPath: *critpath,
			})
			if hub != nil {
				hub.SetSource(e)
			}
			res := e.Run(ctx)
			out.row = newRow(run, cfg, res.Queries, res.Updates, res.TuplesReturned, res.SimTotalMs, res.Counters)
			out.row.ColdFraction = measured(e.World().ColdFraction())
			out.row.Clients, out.row.Ops = res.Clients, res.Ops
			out.row.WallSec, out.row.ThroughputOps = res.WallSec, res.Throughput
			out.row.WallLatency, out.row.SimLatency = &res.WallLatency, &res.SimLatency
			out.row.TopBlockers = res.TopBlockers[:min(len(res.TopBlockers), 8)]
			out.row.Contention = engine.ContentionJSON(res.Contention)
			if *critpath {
				out.row.CritPathNs = critPathNs(res.SegWaitNs, res.SegIONs, res.SegRecomputeNs, res.SegComputeNs)
			}
			out.bd, out.costs = &res.Breakdown, e.World().Meter().Costs()
			out.contention = &telemetry.ContentionRecord{Type: telemetry.RecordContention, Run: run, Locks: out.row.Contention}

		case served:
			res, err := experiments.DriveServed(ctx, addr, &wire.WorldOpen{
				Params:   p,
				Model:    strconv.Itoa(int(model)),
				Strategy: c.strategy.Short(),
				Seed:     c.seed,
				Clients:  *clients,
				Scenario: *scenario,
				Ledger:   ledgerFile != nil,
				CritPath: *critpath,
			}, nil)
			if err != nil {
				return cellOut{}, err
			}
			out.row = newRow(run, cfg, res.Queries, res.Updates, res.Tuples, res.SimTotalMs, res.Counters)
			out.row.Clients, out.row.Ops = res.Clients, res.Ops
			out.row.WallSec, out.row.ThroughputOps = res.WallSec, res.ThroughputOps
			if *critpath {
				out.row.CritPathNs = critPathNs(res.SegWaitNs, res.SegIONs, res.SegRecomputeNs, res.SegComputeNs)
			}
			if res.Clients == 1 {
				sq := sim.Run(cfg)
				match := res.Counters == sq.Counters && res.SimTotalMs == sq.TotalMs
				out.row.MatchesSequential = &match
			}
			out.ledger = res.Ledger
		}

		if traceFile != nil {
			records := []any{out.row.RunRecord}
			if out.bd != nil {
				records = append(records, obs.BreakdownToRecord(run, *out.bd, out.costs))
			}
			for _, sp := range cfg.Tracer.Records(run) {
				records = append(records, sp)
			}
			if out.contention != nil {
				records = append(records, *out.contention)
			}
			enc, err := obs.EncodeJSONL(records...)
			if err != nil {
				return cellOut{}, fmt.Errorf("encoding trace: %w", err)
			}
			out.trace = enc
		}
		if cfg.Ledger != nil {
			var buf bytes.Buffer
			meta := cache.LedgerMeta{
				Strategy: c.strategy.String(), Model: int(model), Clients: *clients,
				Seed: c.seed, Queries: out.row.Queries, Updates: out.row.Updates,
				TotalMs: out.row.TotalMs,
			}
			if err := cache.WriteLedger(&buf, meta, cfg.Ledger); err != nil {
				return cellOut{}, fmt.Errorf("encoding ledger: %w", err)
			}
			out.ledger = buf.Bytes()
		}
		return out, nil
	}

	poolWorkers := parallel.Workers(*workers)
	if m != sequential {
		poolWorkers = 1
	}
	cells, err := parallel.Map(ctx, poolWorkers, len(cellCfgs),
		func(ctx context.Context, i int) (cellOut, error) { return runCell(ctx, cellCfgs[i]) })
	if err != nil {
		return fail("%v", err)
	}

	drift := obs.NewDrift(*driftThreshold)
	var jsonRuns []runJSON
	if !*jsonOut {
		fmt.Fprintf(stdout, "%s, P = %.2f (k=%.0f q=%.0f), f = %g, N1+N2 = %.0f, SF = %g, Z = %g, C_inval = %g ms\n",
			model, p.UpdateProbability(), p.K, p.Q, p.F, p.NumProcs(), p.SF, p.Z, p.CInval)
		if *scenario != "" {
			sc, _ := workload.ByName(*scenario)
			fmt.Fprintf(stdout, "scenario: %s\n", workload.BuildSchedule(sc, workload.Base{
				K: int(p.K + 0.5), Q: int(p.Q + 0.5), Z: p.Z, L: int(p.L + 0.5),
			}).Describe())
		}
		switch m {
		case inProcess:
			fmt.Fprintf(stdout, "concurrent: %d sessions in process, think = %g ms\n", *clients, *think)
		case served:
			fmt.Fprintf(stdout, "served by %s: %d sessions over the wire\n", addr, *clients)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "%-22s %12s %12s %7s %6s   %s\n",
			"strategy", "measured", "predicted", "ratio", "cold", "events")
	}

	// The reduction: consume cells in canonical order. Everything below —
	// drift entries, trace bytes, table rows, JSON — depends only on this
	// order, never on which worker finished first.
	for i, c := range cellCfgs {
		out := cells[i]
		row := out.row
		drift.Record(row.Strategy, row.Model, row.MeasuredMsPerQuery, row.PredictedMsPerQuery)
		if traceFile != nil {
			if _, err := traceFile.Write(out.trace); err != nil {
				return fail("writing trace: %v", err)
			}
		}
		if ledgerFile != nil {
			if _, err := ledgerFile.Write(out.ledger); err != nil {
				return fail("writing ledger: %v", err)
			}
		}

		if *jsonOut {
			if *breakdown {
				row.Breakdown = obs.BreakdownToRecord(row.Run, *out.bd, out.costs).Components
			}
			jsonRuns = append(jsonRuns, row)
			continue
		}
		label := c.strategy.String()
		if *seeds > 1 {
			label = fmt.Sprintf("%s s=%d", c.strategy, c.seed)
		}
		cold := "n/a"
		if row.ColdFraction != nil {
			cold = fmt.Sprintf("%.2f", *row.ColdFraction)
		}
		fmt.Fprintf(stdout, "%-22s %9.1f ms %9.1f ms %7.2f %6s   %v\n",
			label, row.MeasuredMsPerQuery, row.PredictedMsPerQuery, row.Ratio, cold, row.Counters.Counters())
		renderSessions(stdout, row)
		if *breakdown {
			fmt.Fprintln(stdout)
			obs.RenderBreakdown(stdout, *out.bd, out.costs)
			fmt.Fprintln(stdout)
		}
	}

	if *jsonOut {
		var drifts []driftJSON
		for _, e := range drift.Entries() {
			drifts = append(drifts, driftJSON{
				Strategy:      e.Strategy,
				Model:         e.Model,
				Runs:          e.Runs,
				MeasuredMs:    e.MeanMeasured(),
				PredictedMs:   e.MeanPredicted(),
				RelativeError: e.RelErr(),
				Drifting:      drift.Flagged(e),
			})
		}
		doc := map[string]any{
			"model":           model.String(),
			"scenario":        *scenario,
			"seed":            *seed,
			"seeds":           *seeds,
			"drift_threshold": *driftThreshold,
			"runs":            jsonRuns,
			"drift":           drifts,
		}
		switch m {
		case inProcess:
			doc["clients"], doc["think"] = *clients, *think
		case served:
			doc["clients"], doc["served"] = *clients, true
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail("%v", err)
		}
	} else {
		for _, out := range cells {
			if out.contention != nil {
				fmt.Fprintln(stdout)
				telemetry.RenderContention(stdout, *out.contention, 5)
			}
		}
		fmt.Fprintln(stdout)
		drift.Render(stdout)
		if traceFile != nil {
			fmt.Fprintf(stdout, "\ntrace written to %s (render with procstat)\n", *tracePath)
		}
		if ledgerFile != nil {
			fmt.Fprintf(stdout, "ledger written to %s (analyze with procstat)\n", *ledgerPath)
		}
	}

	// Keep the telemetry endpoints up after the run so a live scrape
	// (procstat, curl, Prometheus) can read the final state; the interrupt
	// that cancels ctx ends it.
	if hub != nil && ctx.Err() == nil {
		fmt.Fprintln(stderr, "telemetry: run complete; serving until interrupt")
		<-ctx.Done()
	}
	return 0
}

// newRow is what every cell reports, whatever its mode: the run record
// the drift monitor reads — the paper's TOT quantities, cost per query
// measured and predicted — and the cost it summarizes.
func newRow(run string, cfg sim.Config, queries, updates, tuples int, totalMs float64, counters metric.Counters) runJSON {
	row := runJSON{
		RunRecord: obs.RunRecord{
			Type:                obs.RecordRun,
			Run:                 run,
			Strategy:            cfg.Strategy.String(),
			Model:               cfg.Model.String(),
			Seed:                cfg.Seed,
			Queries:             queries,
			Updates:             updates,
			PredictedMsPerQuery: cfg.PredictedMs(),
		},
		TotalMs:        totalMs,
		TuplesReturned: tuples,
		Counters:       obs.ToCountersJSON(counters),
	}
	if queries > 0 {
		row.MeasuredMsPerQuery = totalMs / float64(queries)
	}
	row.Ratio = row.MeasuredMsPerQuery / row.PredictedMsPerQuery
	return row
}

// measured turns a cold fraction into the run record's field: nil where
// the strategy keeps no such statistic (NaN).
func measured(coldFraction float64) *float64 {
	if math.IsNaN(coldFraction) {
		return nil
	}
	return &coldFraction
}

// critPathNs names the four critical-path segment totals.
func critPathNs(wait, io, recompute, compute int64) map[string]int64 {
	return map[string]int64{"lock_wait": wait, "io": io, "recompute": recompute, "compute": compute}
}

// renderSessions prints what a session cell measured beyond the cost
// row: wall clock and throughput, an in-process cell's latency, a
// 1-client served cell's identity check, the critical-path split and the
// top lock-wait blockers. A sequential row prints nothing here.
func renderSessions(w io.Writer, row runJSON) {
	if row.Clients == 0 {
		return
	}
	fmt.Fprintf(w, "  wall %.2fs, %.0f op/s", row.WallSec, row.ThroughputOps)
	if l := row.WallLatency; l != nil {
		fmt.Fprintf(w, ", p50 %.0f us, p95 %.0f us", l.P50/1e3, l.P95/1e3)
	}
	if ok := row.MatchesSequential; ok != nil {
		if *ok {
			fmt.Fprint(w, ", served = sim.Run")
		} else {
			fmt.Fprint(w, ", served DIVERGES from sim.Run")
		}
	}
	fmt.Fprintln(w)
	if cp := row.CritPathNs; cp != nil {
		if total := cp["lock_wait"] + cp["io"] + cp["recompute"] + cp["compute"]; total > 0 {
			fmt.Fprintf(w, "  critical path: lock-wait %4.1f%%  io %4.1f%%  recompute %4.1f%%  compute %4.1f%%\n",
				100*float64(cp["lock_wait"])/float64(total),
				100*float64(cp["io"])/float64(total),
				100*float64(cp["recompute"])/float64(total),
				100*float64(cp["compute"])/float64(total))
		}
	}
	for _, b := range row.TopBlockers[:min(len(row.TopBlockers), 3)] {
		fmt.Fprintf(w, "  blocker: %-14s held by session %d (%s): %d waits, %.2f ms\n",
			b.Lock, b.HolderSession, b.HolderOp, b.Waits, float64(b.WaitNs)/1e6)
	}
}
