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
// With -seeds N every strategy runs N consecutive workload seeds; the
// (strategy × seed) cells fan out across -workers workers, and results —
// tables, JSON, and trace files alike — are reduced in canonical
// (strategy, seed) order, so output is byte-identical for any worker
// count (see docs/PARALLEL.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
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

// runJSON is one strategy's result in -json output.
type runJSON struct {
	obs.RunRecord
	Ratio          float64                     `json:"ratio"`
	TotalMs        float64                     `json:"total_ms"`
	TuplesReturned int                         `json:"tuples_returned"`
	Counters       obs.CountersJSON            `json:"counters"`
	Breakdown      map[string]obs.CountersJSON `json:"breakdown,omitempty"`
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

// cellOut is one (strategy, seed) run's complete output, produced by a
// pool worker and consumed by the in-order reduction: the run result,
// the meter state, and the run's trace records pre-encoded into a
// private buffer so the trace file stays byte-stable under -workers N.
type cellOut struct {
	res    sim.Result
	bd     metric.Breakdown
	costs  metric.Costs
	trace  []byte
	ledger []byte
	record obs.RunRecord
}

func main() {
	p := costmodel.Default()
	flag.Float64Var(&p.N, "N", p.N, "tuples in R1")
	flag.Float64Var(&p.F, "f", p.F, "selectivity of C_f")
	flag.Float64Var(&p.F2, "f2", p.F2, "selectivity of C_f2")
	flag.Float64Var(&p.N1, "N1", p.N1, "P1 procedures")
	flag.Float64Var(&p.N2, "N2", p.N2, "P2 procedures")
	flag.Float64Var(&p.K, "k", p.K, "update transactions")
	flag.Float64Var(&p.Q, "q", p.Q, "procedure accesses")
	flag.Float64Var(&p.L, "l", p.L, "tuples modified per update")
	flag.Float64Var(&p.SF, "sf", p.SF, "sharing factor")
	flag.Float64Var(&p.Z, "Z", p.Z, "locality skew")
	flag.Float64Var(&p.CInval, "cinval", p.CInval, "invalidation cost (ms)")
	upd := flag.Float64("P", -1, "update probability (overrides -k, keeping -q)")
	modelFlag := flag.Int("model", 1, "procedure model: 1 (2-way joins) or 2 (3-way)")
	strategyFlag := flag.String("strategy", "", "recompute | ci | uc-avm | uc-rvm (default: all)")
	scenario := flag.String("scenario", "", "hostile-workload scenario from the catalog (see docs/SCENARIOS.md; default: polite workload)")
	seed := flag.Int64("seed", 1, "workload seed")
	seeds := flag.Int("seeds", 1, "consecutive workload seeds per strategy (averaged in the drift table)")
	workers := flag.Int("workers", 0, "concurrent (strategy x seed) cells (0 = one per CPU); output is identical for any value")
	clients := flag.Int("clients", 1, "concurrent client sessions (>1 switches to the multi-session engine)")
	think := flag.Float64("think", 0, "mean per-session think time in ms (exponential; concurrent mode)")
	serve := flag.Bool("serve", false, "drive the workload through a loopback procserved over the wire (docs/SERVING.md)")
	connect := flag.String("connect", "", "drive the workload against this external procserved address (implies -serve)")
	tracePath := flag.String("trace", "", "write a per-operation JSONL trace to this file (render with procstat)")
	ledgerPath := flag.String("ledger", "", "write a cache-efficacy ledger (JSONL) to this file (analyze with procstat; docs/DIAGNOSIS.md)")
	critpath := flag.Bool("critpath", false, "time I/O and recompute and decompose each op's wall time into lock-wait/IO/recompute/compute (concurrent mode; lock-wait blame is always reported)")
	listen := flag.String("listen", "", "serve /metrics, /debug/pprof and /events on this address (e.g. :9090) until interrupted")
	flightPath := flag.String("flight", "", "write a flight-recorder dump to this file if the run trips a telemetry trigger")
	breakdown := flag.Bool("breakdown", false, "print the per-component cost breakdown of each run")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	driftThreshold := flag.Float64("drift-threshold", obs.DefaultDriftThreshold,
		"relative error above which measured cost is flagged as drifting from the model")
	flag.Parse()

	if *upd >= 0 {
		p = p.WithUpdateProbability(*upd)
	}
	model := costmodel.Model(*modelFlag)
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "procsim: -seeds must be >= 1\n")
		os.Exit(1)
	}

	if *scenario != "" {
		if _, ok := workload.ByName(*scenario); !ok {
			fmt.Fprintf(os.Stderr, "procsim: unknown scenario %q; catalog: %s\n",
				*scenario, strings.Join(workload.Names(), ", "))
			os.Exit(1)
		}
	}

	var strategies []costmodel.Strategy
	if *strategyFlag == "" {
		strategies = costmodel.Strategies[:]
	} else {
		s, ok := costmodel.ParseStrategy(strings.ToLower(*strategyFlag))
		if !ok {
			fmt.Fprintf(os.Stderr, "procsim: unknown strategy %q (want recompute, ci, uc-avm or uc-rvm)\n", *strategyFlag)
			os.Exit(1)
		}
		strategies = []costmodel.Strategy{s}
	}

	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		defer f.Close()
	}
	var ledgerFile *os.File
	if *ledgerPath != "" {
		f, err := os.Create(*ledgerPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
		ledgerFile = f
		defer f.Close()
	}

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
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
		defer hub.Close()
	}

	if *serve || *connect != "" {
		runServed(ctx, p, model, strategies, *scenario, *seed, *clients, *connect, *jsonOut)
		waitServe(ctx, hub)
		return
	}

	if *clients > 1 {
		runConcurrent(ctx, p, model, strategies, *scenario, *seed, *clients, *think,
			traceFile, ledgerFile, *critpath, *jsonOut, hub, rec)
		waitServe(ctx, hub)
		return
	}

	// One cell per (strategy, seed), in canonical order: strategy first,
	// then seed — the order every reduction below iterates in.
	type cellCfg struct {
		strategy costmodel.Strategy
		seed     int64
	}
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

	cells, err := parallel.Map(ctx, parallel.Workers(*workers), len(cellCfgs),
		func(ctx context.Context, i int) (cellOut, error) {
			c := cellCfgs[i]
			cfg := sim.Config{Params: p, Model: model, Strategy: c.strategy, Seed: c.seed, Scenario: *scenario}
			if traceFile != nil {
				cfg.Tracer = obs.NewTracer()
			}
			if ledgerFile != nil {
				cfg.Ledger = cache.NewLedger()
			}
			w := sim.Build(cfg)
			res := w.Run()
			out := cellOut{res: res, bd: w.Meter().Breakdown(), costs: w.Meter().Costs()}
			run := runLabel(c)
			out.record = obs.RunRecord{
				Type:                obs.RecordRun,
				Run:                 run,
				Strategy:            c.strategy.String(),
				Model:               model.String(),
				Seed:                c.seed,
				Queries:             res.Queries,
				Updates:             res.Updates,
				MeasuredMsPerQuery:  res.MsPerQuery,
				PredictedMsPerQuery: res.PredictedMs,
			}
			if res.HasColdFraction() {
				cf := res.ColdFraction
				out.record.ColdFraction = &cf
			}
			if traceFile != nil {
				records := []any{out.record, obs.BreakdownToRecord(run, out.bd, out.costs)}
				for _, sp := range cfg.Tracer.Records(run) {
					records = append(records, sp)
				}
				enc, err := obs.EncodeJSONL(records...)
				if err != nil {
					return cellOut{}, fmt.Errorf("encoding trace: %w", err)
				}
				out.trace = enc
			}
			if ledgerFile != nil {
				var buf bytes.Buffer
				meta := cache.LedgerMeta{
					Strategy: c.strategy.String(), Model: int(model), Clients: 1,
					Seed: c.seed, Queries: res.Queries, Updates: res.Updates,
					TotalMs: res.TotalMs,
				}
				if err := cache.WriteLedger(&buf, meta, cfg.Ledger); err != nil {
					return cellOut{}, fmt.Errorf("encoding ledger: %w", err)
				}
				out.ledger = buf.Bytes()
			}
			return out, nil
		})
	if err != nil {
		fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
		os.Exit(1)
	}
	drift := obs.NewDrift(*driftThreshold)
	var jsonRuns []runJSON

	if !*jsonOut {
		fmt.Printf("%s, P = %.2f (k=%.0f q=%.0f), f = %g, N1+N2 = %.0f, SF = %g, Z = %g, C_inval = %g ms\n",
			model, p.UpdateProbability(), p.K, p.Q, p.F, p.NumProcs(), p.SF, p.Z, p.CInval)
		if *scenario != "" {
			if sc, ok := workload.ByName(*scenario); ok {
				fmt.Printf("scenario: %s\n", workload.BuildSchedule(sc, workload.Base{
					K: int(p.K + 0.5), Q: int(p.Q + 0.5), Z: p.Z, L: int(p.L + 0.5),
				}).Describe())
			}
		}
		fmt.Println()
		fmt.Printf("%-22s %12s %12s %7s %6s   %s\n",
			"strategy", "measured", "predicted", "ratio", "cold", "events")
	}

	// The reduction: consume cells in canonical order. Everything below —
	// drift entries, trace bytes, table rows, JSON — depends only on this
	// order, never on which worker finished first.
	for i, c := range cellCfgs {
		out := cells[i]
		res := out.res
		drift.Record(c.strategy.String(), model.String(), res.MsPerQuery, res.PredictedMs)

		if traceFile != nil {
			if _, err := traceFile.Write(out.trace); err != nil {
				fmt.Fprintf(os.Stderr, "procsim: writing trace: %v\n", err)
				os.Exit(1)
			}
		}
		if ledgerFile != nil {
			if _, err := ledgerFile.Write(out.ledger); err != nil {
				fmt.Fprintf(os.Stderr, "procsim: writing ledger: %v\n", err)
				os.Exit(1)
			}
		}

		if *jsonOut {
			jr := runJSON{
				RunRecord:      out.record,
				Ratio:          res.MsPerQuery / res.PredictedMs,
				TotalMs:        res.TotalMs,
				TuplesReturned: res.TuplesReturned,
				Counters:       obs.ToCountersJSON(res.Counters),
			}
			if *breakdown {
				jr.Breakdown = obs.BreakdownToRecord(out.record.Run, out.bd, out.costs).Components
			}
			jsonRuns = append(jsonRuns, jr)
			continue
		}

		label := c.strategy.String()
		if *seeds > 1 {
			label = fmt.Sprintf("%s s=%d", c.strategy, c.seed)
		}
		fmt.Printf("%-22s %9.1f ms %9.1f ms %7.2f %6s   %v\n",
			label, res.MsPerQuery, res.PredictedMs, res.MsPerQuery/res.PredictedMs,
			res.ColdFractionString(), res.Counters)
		if *breakdown {
			fmt.Println()
			obs.RenderBreakdown(os.Stdout, out.bd, out.costs)
			fmt.Println()
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"model":           model.String(),
			"scenario":        *scenario,
			"seed":            *seed,
			"seeds":           *seeds,
			"drift_threshold": *driftThreshold,
			"runs":            jsonRuns,
			"drift":           drifts,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Println()
		drift.Render(os.Stdout)
	}
	if traceFile != nil && !*jsonOut {
		fmt.Printf("\ntrace written to %s (render with procstat)\n", *tracePath)
	}
	if ledgerFile != nil && !*jsonOut {
		fmt.Printf("ledger written to %s (analyze with procstat)\n", *ledgerPath)
	}
	waitServe(ctx, hub)
}

// waitServe keeps the telemetry endpoints up after the run finishes so a
// live scrape (procmon, curl, Prometheus) can read the final state; the
// interrupt that cancels ctx ends it. No-op without -listen.
func waitServe(ctx context.Context, hub *telemetry.Hub) {
	if hub == nil || ctx.Err() != nil {
		return
	}
	fmt.Fprintln(os.Stderr, "telemetry: run complete; serving until interrupt")
	<-ctx.Done()
}

// concurrentJSON is one strategy's result in concurrent-mode -json
// output.
type concurrentJSON struct {
	Strategy      string                         `json:"strategy"`
	Model         string                         `json:"model"`
	Clients       int                            `json:"clients"`
	Ops           int                            `json:"ops"`
	WallSec       float64                        `json:"wall_sec"`
	ThroughputOps float64                        `json:"throughput_ops_per_sec"`
	SimTotalMs    float64                        `json:"sim_total_ms"`
	Counters      obs.CountersJSON               `json:"counters"`
	WallLatency   obs.Summary                    `json:"wall_latency"`
	SimLatency    obs.Summary                    `json:"sim_latency"`
	Contention    []telemetry.LockContentionJSON `json:"contention,omitempty"`
	CritPathNs    map[string]int64               `json:"crit_path_ns,omitempty"`
	TopBlockers   []blockerJSON                  `json:"top_blockers,omitempty"`
}

// blockerJSON is one aggregated blame edge in -json output.
type blockerJSON struct {
	Lock          string `json:"lock"`
	HolderSession int    `json:"holder_session"`
	HolderOp      string `json:"holder_op"`
	Waits         int    `json:"waits"`
	WaitNs        int64  `json:"wait_ns"`
}

// runConcurrent drives each strategy through the multi-session engine:
// the workload is dealt across -clients closed-loop sessions with
// exponential -think pauses, and the run reports wall-clock throughput
// and latency next to the simulated cost, then each run's lock-contention
// profile. With -trace, one span per operation is recorded, tagged with
// its session and commit sequence, plus one contention record per run.
// With -listen, each engine becomes the hub's metrics source and its
// events stream into the flight recorder. The top lock-wait blockers are
// always reported; with -critpath, each op's wall time is decomposed; with
// -ledger, each strategy's cache-efficacy ledger is appended to the
// ledger file as one section.
func runConcurrent(ctx context.Context, p costmodel.Params, model costmodel.Model,
	strategies []costmodel.Strategy, scenario string, seed int64, clients int, think float64,
	traceFile, ledgerFile *os.File, critpath, jsonOut bool,
	hub *telemetry.Hub, rec *telemetry.Recorder) {
	if !jsonOut {
		label := ""
		if scenario != "" {
			label = fmt.Sprintf(", scenario %s", scenario)
		}
		fmt.Printf("%s, concurrent: %d sessions, think = %g ms, k=%.0f q=%.0f, seed = %d%s\n\n",
			model, clients, think, p.K, p.Q, seed, label)
		fmt.Printf("%-22s %8s %12s %10s %10s %12s\n",
			"strategy", "wall", "throughput", "p50", "p95", "sim cost")
	}
	var jsonRows []concurrentJSON
	var contRecs []telemetry.ContentionRecord
	for _, s := range strategies {
		if ctx.Err() != nil {
			break
		}
		cfg := sim.Config{Params: p, Model: model, Strategy: s, Seed: seed, Scenario: scenario}
		if ledgerFile != nil {
			cfg.Ledger = cache.NewLedger()
		}
		// A recorder arms the always-on detectors: a p99-latency,
		// contention-share or wasted-work breach fires an EvDetector
		// event, which auto-dumps the flight ring (docs/DIAGNOSIS.md).
		opt := engine.Options{
			Clients:     clients,
			ThinkMeanMs: think,
			Recorder:    rec,
			CritPath:    critpath,
		}
		if traceFile != nil {
			opt.Tracer = obs.NewTracer()
		}
		e := engine.New(cfg, opt)
		if hub != nil {
			hub.SetSource(e)
		}
		res := e.Run(ctx)
		contention := engine.ContentionJSON(res.Contention)
		contRec := telemetry.ContentionRecord{
			Type:  telemetry.RecordContention,
			Run:   s.Short(),
			Locks: contention,
		}
		contRecs = append(contRecs, contRec)
		if traceFile != nil {
			records := make([]any, 0, res.Ops+1)
			for _, sp := range opt.Tracer.Records(s.Short()) {
				records = append(records, sp)
			}
			records = append(records, contRec)
			enc, err := obs.EncodeJSONL(records...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "procsim: encoding trace: %v\n", err)
				os.Exit(1)
			}
			if _, err := traceFile.Write(enc); err != nil {
				fmt.Fprintf(os.Stderr, "procsim: writing trace: %v\n", err)
				os.Exit(1)
			}
		}
		if ledgerFile != nil {
			meta := cache.LedgerMeta{
				Strategy: s.String(), Model: int(model), Clients: clients,
				Seed: seed, Queries: res.Queries, Updates: res.Updates,
				TotalMs: res.SimTotalMs,
			}
			if err := cache.WriteLedger(ledgerFile, meta, cfg.Ledger); err != nil {
				fmt.Fprintf(os.Stderr, "procsim: writing ledger: %v\n", err)
				os.Exit(1)
			}
		}
		var critNs map[string]int64
		if critpath {
			critNs = map[string]int64{"lock_wait": res.SegWaitNs, "io": res.SegIONs,
				"recompute": res.SegRecomputeNs, "compute": res.SegComputeNs}
		}
		var blockers []blockerJSON
		for _, b := range res.TopBlockers[:min(len(res.TopBlockers), 8)] {
			blockers = append(blockers, blockerJSON{
				Lock: b.Lock, HolderSession: b.HolderSession, HolderOp: b.HolderOp,
				Waits: b.Waits, WaitNs: b.WaitNs,
			})
		}
		if jsonOut {
			jsonRows = append(jsonRows, concurrentJSON{
				Strategy:      s.String(),
				Model:         model.String(),
				Clients:       res.Clients,
				Ops:           res.Ops,
				WallSec:       res.WallSec,
				ThroughputOps: res.Throughput,
				SimTotalMs:    res.SimTotalMs,
				Counters:      obs.ToCountersJSON(res.Counters),
				WallLatency:   res.WallLatency,
				SimLatency:    res.SimLatency,
				Contention:    contention,
				CritPathNs:    critNs,
				TopBlockers:   blockers,
			})
			continue
		}
		fmt.Printf("%-22s %7.2fs %8.0f op/s %7.0f us %7.0f us %9.1f ms\n",
			s, res.WallSec, res.Throughput,
			res.WallLatency.P50/1e3, res.WallLatency.P95/1e3,
			res.SimTotalMs)
		if critpath {
			total := critNs["lock_wait"] + critNs["io"] + critNs["recompute"] + critNs["compute"]
			if total > 0 {
				fmt.Printf("  critical path: lock-wait %4.1f%%  io %4.1f%%  recompute %4.1f%%  compute %4.1f%%\n",
					100*float64(critNs["lock_wait"])/float64(total),
					100*float64(critNs["io"])/float64(total),
					100*float64(critNs["recompute"])/float64(total),
					100*float64(critNs["compute"])/float64(total))
			}
		}
		for _, b := range blockers[:min(len(blockers), 3)] {
			fmt.Printf("  blocker: %-14s held by session %d (%s): %d waits, %.2f ms\n",
				b.Lock, b.HolderSession, b.HolderOp, b.Waits, float64(b.WaitNs)/1e6)
		}
	}
	if !jsonOut {
		for _, cr := range contRecs {
			fmt.Println()
			telemetry.RenderContention(os.Stdout, cr, 5)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"model":    model.String(),
			"scenario": scenario,
			"clients":  clients,
			"think":    think,
			"seed":     seed,
			"runs":     jsonRows,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
	}
	if traceFile != nil && !jsonOut {
		fmt.Println("\ntrace written (render with procstat)")
	}
}

// servedJSON is one strategy's result in served-mode -json output.
type servedJSON struct {
	Strategy      string           `json:"strategy"`
	Model         string           `json:"model"`
	Clients       int              `json:"clients"`
	Ops           int              `json:"ops"`
	WallSec       float64          `json:"wall_sec"`
	ThroughputOps float64          `json:"throughput_ops_per_sec"`
	SimTotalMs    float64          `json:"sim_total_ms"`
	Counters      obs.CountersJSON `json:"counters"`
	// MatchesSequential is reported for 1-client runs: the served
	// world's counters and simulated cost equal sim.Run's byte for byte.
	MatchesSequential bool `json:"matches_sequential,omitempty"`
}

// runServed drives each strategy's workload through procserved: a bench
// world is opened over the wire and every session steps through its
// dealt operation stream over a connection of its own, so the
// printed throughput is a measured wall-clock figure that includes real
// wire round-trips. With -connect the workload runs against an external
// server; otherwise a loopback procserved lives for the run's duration.
// One-client runs additionally check identity against sim.Run.
func runServed(ctx context.Context, p costmodel.Params, model costmodel.Model,
	strategies []costmodel.Strategy, scenario string, seed int64, clients int, addr string, jsonOut bool) {
	if addr == "" {
		srv := server.New(server.Options{})
		a, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "procsim: starting loopback procserved: %v\n", err)
			os.Exit(1)
		}
		addr = a
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
	}
	if clients < 1 {
		clients = 1
	}
	if !jsonOut {
		fmt.Printf("%s, served by %s: %d sessions over the wire, k=%.0f q=%.0f, seed = %d\n\n",
			model, addr, clients, p.K, p.Q, seed)
		fmt.Printf("%-22s %8s %14s %12s   %s\n",
			"strategy", "wall", "throughput", "sim cost", "identity")
	}
	var jsonRows []servedJSON
	for _, s := range strategies {
		if ctx.Err() != nil {
			break
		}
		res, err := experiments.DriveServed(ctx, addr, &wire.WorldOpen{
			Params:   p,
			Model:    strconv.Itoa(int(model)),
			Strategy: s.Short(),
			Seed:     seed,
			Clients:  clients,
			Scenario: scenario,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
		identity := "-"
		match := false
		if clients == 1 {
			sq := sim.Run(sim.Config{Params: p, Model: model, Strategy: s, Seed: seed, Scenario: scenario})
			match = res.Counters == sq.Counters && res.SimTotalMs == sq.TotalMs
			if match {
				identity = "= sim.Run"
			} else {
				identity = "DIVERGES from sim.Run"
			}
		}
		if jsonOut {
			jsonRows = append(jsonRows, servedJSON{
				Strategy:          s.String(),
				Model:             model.String(),
				Clients:           res.Clients,
				Ops:               res.Ops,
				WallSec:           res.WallSec,
				ThroughputOps:     res.ThroughputOps,
				SimTotalMs:        res.SimTotalMs,
				Counters:          obs.ToCountersJSON(res.Counters),
				MatchesSequential: match,
			})
			continue
		}
		fmt.Printf("%-22s %7.2fs %10.0f op/s %9.1f ms   %s\n",
			s, res.WallSec, res.ThroughputOps, res.SimTotalMs, identity)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"model":    model.String(),
			"scenario": scenario,
			"clients":  clients,
			"seed":     seed,
			"served":   true,
			"runs":     jsonRows,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %v\n", err)
			os.Exit(1)
		}
	}
}
