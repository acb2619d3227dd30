package experiments

import (
	"context"
	"runtime"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/obs"
	"dbproc/internal/server"
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
)

// ConcurrentBenchReport is the shape of BENCH_concurrent.json: for each
// strategy × model, the closed-loop multi-session engine's throughput
// and latency across the session ladder, with the one-session row's
// equality against the sequential simulator as the correctness anchor.
type ConcurrentBenchReport struct {
	// Cores bounds the wall-clock concurrency the measured rows could use.
	Cores int `json:"cores"`
	// Scale and Seed are the simulation settings every row shared.
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	// ThinkMeanMs is the per-session mean think time (exponential); think
	// time is what concurrent sessions overlap, so zero means rows measure
	// pure lock/latch contention.
	ThinkMeanMs float64 `json:"think_mean_ms"`
	// Ops is the workload length each row executed (K + Q).
	Ops int `json:"ops"`
	// Served reports whether rows carry a measured wall_served pass
	// (the same cell driven through procserved over the wire driver).
	Served bool `json:"served,omitempty"`

	Rows []ConcurrentBenchRow `json:"rows"`
}

// ConcurrentBenchRow is one (strategy, model, clients, scenario)
// measurement.
type ConcurrentBenchRow struct {
	Strategy string `json:"strategy"`
	Model    string `json:"model"`
	Clients  int    `json:"clients"`
	// Scenario names the hostile workload the row ran under; empty is
	// the polite baseline. Only the ladder's top rung — the contention
	// cells — gets scenario rows.
	Scenario string `json:"scenario,omitempty"`
	// ThroughputOps is operations per wall-clock second.
	ThroughputOps float64 `json:"throughput_ops_per_sec"`
	// Speedup is this row's throughput over the same strategy/model's
	// one-client throughput.
	Speedup float64 `json:"speedup_vs_1"`
	// SimTotalMs is the simulated cost of the whole workload — identical
	// across the ladder for a serializable engine executing the same
	// committed schedule amount of work.
	SimTotalMs float64 `json:"sim_total_ms"`
	// MatchesSequential is set on one-client rows: counters, tuple counts
	// and simulated cost equal the sequential simulator's byte for byte.
	MatchesSequential bool `json:"matches_sequential,omitempty"`
	// WallServedOps is the measured throughput (ops per wall-clock
	// second, wire round-trips included) of the same cell driven
	// through procserved by concurrent database/sql clients — one
	// pooled connection per session. Zero when the served pass is off.
	WallServedOps float64 `json:"wall_served_ops_per_sec,omitempty"`
	// ServedMatchesSequential is set on served 1-client rows: the
	// served world's counters and simulated cost equal the sequential
	// simulator's byte for byte, and its history digest equals the
	// in-process 1-client run's, extending the MatchesSequential anchor
	// across the wire to the commit stream itself.
	ServedMatchesSequential bool `json:"served_matches_sequential,omitempty"`
	// WallLatency / SimLatency summarize per-operation latency from the
	// engine's histograms: wall-clock nanoseconds (lock wait + latched
	// service) and simulated milliseconds. Each quantile is its bucket's
	// upper edge (docs/TELEMETRY.md, "Latency histograms").
	WallLatency obs.Summary `json:"wall_latency"`
	SimLatency  obs.Summary `json:"sim_latency"`
	// Contention is the run's per-lock wall-clock contention profile,
	// sorted by total wait time descending.
	Contention []telemetry.LockContentionJSON `json:"contention,omitempty"`
	// AccessWaitShare is the fraction of access (query) wall time this
	// row's sessions spent waiting on locks, as measured — queries read at
	// a snapshot and take no locks, so it stays near zero.
	AccessWaitShare float64 `json:"access_wait_share"`
}

// concurrentBenchParams is the measured workload: the paper's default
// parameter point, scaled like every other simulated sweep.
func concurrentBenchParams(opt Options) costmodel.Params {
	return scaled(costmodel.Default(), opt)
}

// BenchParams exposes the concurrent benchmark's exact parameter point
// (the paper's defaults under opt.Scale), so external harnesses can
// replay a BENCH_concurrent.json row — procdoctor's verdict test
// regenerates a row's ledger evidence from it.
func BenchParams(opt Options) costmodel.Params {
	return concurrentBenchParams(opt)
}

// ConcurrentBench measures the multi-session engine across the client
// ladder for every strategy and model. It is the harness behind
// `procbench -concurrent-json BENCH_concurrent.json`.
func ConcurrentBench(ctx context.Context, opt Options) ConcurrentBenchReport {
	p := concurrentBenchParams(opt)
	ladder := []int{1, 2, 4, 8}
	if opt.Clients > 0 {
		trimmed := ladder[:0]
		for _, c := range ladder {
			if c <= opt.Clients {
				trimmed = append(trimmed, c)
			}
		}
		ladder = trimmed
		if len(ladder) == 0 || ladder[len(ladder)-1] != opt.Clients {
			ladder = append(ladder, opt.Clients)
		}
	}
	think := opt.ThinkMeanMs

	rep := ConcurrentBenchReport{
		Cores:       runtime.NumCPU(),
		Scale:       opt.Scale,
		Seed:        opt.SimSeed,
		ThinkMeanMs: think,
		Ops:         int(p.K+0.5) + int(p.Q+0.5),
	}

	// The served pass measures each cell a second time through
	// procserved over the database/sql driver; with no external address
	// a loopback server lives for the duration of the bench.
	var servedAddr string
	if opt.Served {
		servedAddr = opt.ServedAddr
		if servedAddr == "" {
			srv := server.New(server.Options{})
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err == nil {
				servedAddr = addr
				defer func() {
					sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					srv.Shutdown(sctx)
				}()
			}
		}
	}
	rep.Served = servedAddr != ""

	strategies := []costmodel.Strategy{
		costmodel.AlwaysRecompute,
		costmodel.CacheInvalidate,
		costmodel.UpdateCacheAVM,
		costmodel.UpdateCacheRVM,
	}
	for _, strat := range strategies {
		for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			cfg := sim.Config{
				Params:   p,
				Model:    model,
				Strategy: strat,
				Seed:     opt.SimSeed,
			}
			var base float64
			var seq sim.Result
			for i, clients := range ladder {
				if ctx.Err() != nil {
					return rep
				}
				eopt := engine.Options{
					Clients:      clients,
					ThinkMeanMs:  think,
					ProfileLocks: true,
				}
				if opt.Hub != nil {
					eopt.Recorder = opt.Hub.Recorder()
				}
				e := engine.New(cfg, eopt)
				if opt.Hub != nil {
					opt.Hub.SetSource(e)
				}
				res := e.Run(ctx)
				row := ConcurrentBenchRow{
					Strategy:        strat.String(),
					Model:           model.String(),
					Clients:         clients,
					ThroughputOps:   res.Throughput,
					SimTotalMs:      res.SimTotalMs,
					WallLatency:     res.WallLatency,
					SimLatency:      res.SimLatency,
					Contention:      engine.ContentionJSON(res.Contention),
					AccessWaitShare: e.WaitProfile().AccessWaitShare(),
				}
				// Contention cells (top rung, >1 session) get a
				// storm-adversarial row below.
				topRung := clients == ladder[len(ladder)-1] && clients > 1
				if i == 0 {
					base = res.Throughput
					if clients == 1 {
						seq = sim.Run(cfg)
						row.MatchesSequential = res.Counters == seq.Counters &&
							res.TuplesReturned == seq.TuplesReturned &&
							res.SimTotalMs == seq.TotalMs
					}
				}
				if base > 0 {
					row.Speedup = res.Throughput / base
				}
				if servedAddr != "" {
					sres, err := DriveServed(ctx, servedAddr, &wire.WorldOpen{
						Params:   p,
						Model:    WireModel(model),
						Strategy: WireStrategy(strat),
						Seed:     opt.SimSeed,
						Clients:  clients,
					})
					if err == nil {
						row.WallServedOps = sres.ThroughputOps
						if clients == 1 {
							row.ServedMatchesSequential = sres.Counters == seq.Counters &&
								sres.SimTotalMs == seq.TotalMs &&
								sres.HistoryDigest == res.HistoryDigest
						}
					}
				}
				rep.Rows = append(rep.Rows, row)

				// Scenario axis: the same contention cell re-measured
				// under the storm-adversarial workload (hot-key query
				// storm stacked on adversarial invalidation).
				if topRung {
					scfg := cfg
					scfg.Scenario = "storm-adversarial"
					se := engine.New(scfg, engine.Options{
						Clients:      clients,
						ThinkMeanMs:  think,
						ProfileLocks: true,
					})
					sres := se.Run(ctx)
					srow := ConcurrentBenchRow{
						Strategy:        strat.String(),
						Model:           model.String(),
						Clients:         clients,
						Scenario:        scfg.Scenario,
						ThroughputOps:   sres.Throughput,
						SimTotalMs:      sres.SimTotalMs,
						WallLatency:     sres.WallLatency,
						SimLatency:      sres.SimLatency,
						Contention:      engine.ContentionJSON(sres.Contention),
						AccessWaitShare: se.WaitProfile().AccessWaitShare(),
					}
					if base > 0 {
						srow.Speedup = sres.Throughput / base
					}
					rep.Rows = append(rep.Rows, srow)
				}
			}
		}
	}
	return rep
}
