package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"dbproc"
	"dbproc/benchmark/spec"
	"dbproc/client"
	"dbproc/internal/wire"
)

// options are the knobs of one run.
type options struct {
	Bin     string // the built procserved
	Ladder  string // the built ladder
	Seed    int64
	Seconds float64
	Quick   bool
	// TraceDir receives trace-<workload>.json.
	TraceDir string
}

// warmFraction of the measured time is run first and not sampled.
const warmFraction = 0.05

// setupReps is how often a run sets the system up; setup_s is the
// median. Opening a world takes a fraction of a second and varies by a
// quarter of that, so it is repeated often; QUEL population takes 1.5 s
// and varies little.
func (o options) setupReps(wl spec.Workload) int {
	switch {
	case o.Quick:
		return 1
	case wl.IsQuel():
		return 3
	}
	return 9
}

// verifyKQ is the size of the 1-client identity world.
func (o options) verifyKQ() (k, q float64) {
	if o.Quick {
		return 20, 80
	}
	return 200, 800
}

// probeRounds sizes the QUEL cost probe: 110 statements a round.
func (o options) probeRounds() int {
	if o.Quick {
		return 2
	}
	return 100
}

// result is one run of one workload: the metrics, the bookkeeping the
// result line needs, and every failed output check.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Checks    []string         `json:"failed_checks,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

func newResult(wl spec.Workload, o options, traced bool) *result {
	return &result{Workload: wl.Name, Seed: o.Seed, Seconds: o.Seconds, Traced: traced,
		Correct: true, Metrics: map[string]value{}}
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// window folds the clients' runs into the run's totals.
type window struct {
	Access, Update []float64 // sorted
	Ops            int       // sampled
	WallS          float64
	All            clientRun // sums over clients of the count fields
}

// opsPerS is the window's throughput, 0 for a window without ops.
func (w window) opsPerS() float64 {
	if w.WallS <= 0 {
		return 0
	}
	return float64(w.Ops) / w.WallS
}

func foldRuns(runs []clientRun) window {
	var w window
	var first, last time.Time
	w.All.CpReached = true
	for i, r := range runs {
		w.Access = append(w.Access, r.Access...)
		w.Update = append(w.Update, r.Update...)
		if i == 0 || r.Start.Before(first) {
			first = r.Start
		}
		if i == 0 || r.End.After(last) {
			last = r.End
		}
		w.All.Ops += r.Ops
		w.All.Queries += r.Queries
		w.All.Updates += r.Updates
		w.All.SimMs += r.SimMs
		w.All.Failed += r.Failed
		w.All.CpSimMs += r.CpSimMs
		w.All.CpQueries += r.CpQueries
		w.All.CpRSSMB = math.Max(w.All.CpRSSMB, r.CpRSSMB)
		w.All.CpReached = w.All.CpReached && r.CpReached
		if r.Err != nil && w.All.Err == nil {
			w.All.Err = r.Err
		}
	}
	sort.Float64s(w.Access)
	sort.Float64s(w.Update)
	w.Ops = len(w.Access) + len(w.Update)
	w.WallS = last.Sub(first).Seconds()
	return w
}

// measure is the untraced run: set up (several times, for setup_s),
// drive the closed loop, read the end-to-end metrics, run the output
// checks, drain the server.
func measure(ctx context.Context, wl spec.Workload, o options) (*result, error) {
	res := newResult(wl, o, false)

	var t *target
	var setups []float64
	for rep := 0; rep < o.setupReps(wl); rep++ {
		if t != nil {
			if err := t.teardown(ctx); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if t, err = setup(ctx, o.Bin, wl, o.Seed, nil, ""); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", wl.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", "s", median(setups), len(setups))

	var probe probeResult
	if wl.IsQuel() {
		var err error
		if probe, err = t.quelProbe(ctx, o.probeRounds()); err != nil {
			t.srv.kill()
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
	}

	measureFor := time.Duration(o.Seconds * float64(time.Second))
	runs := runClients(ctx, t.steps, loopPlan{
		Warm:       time.Duration(warmFraction * float64(measureFor)),
		Measure:    measureFor,
		Checkpoint: wl.CheckpointOps(o.Seconds),
		RSS:        t.srv.peakRSSMB,
	})
	w := foldRuns(runs)
	res.Attempted = w.All.Ops + w.All.Failed
	res.Failed = w.All.Failed
	if w.All.Err != nil {
		res.fail("an op failed: %v", w.All.Err)
	}

	if w.Ops == 0 || w.WallS <= 0 {
		t.srv.kill()
		return nil, fmt.Errorf("%s: no op completed in the measured window (last error: %v)", wl.Name, w.All.Err)
	}
	res.set("ops_per_s", "ops/s", w.opsPerS(), w.Ops)
	res.set("access_p50_us", "us", percentile(w.Access, 0.50), len(w.Access))
	res.set("access_p99_us", "us", percentile(w.Access, 0.99), len(w.Access))
	res.set("update_p50_us", "us", percentile(w.Update, 0.50), len(w.Update))
	res.set("update_p99_us", "us", percentile(w.Update, 0.99), len(w.Update))
	for _, s := range [][]float64{w.Access, w.Update} {
		if len(s) < 1000 {
			res.note("only %d samples behind a p99: fewer than ten lie beyond it", len(s))
		}
	}

	rss := w.All.CpRSSMB
	if !w.All.CpReached || rss == 0 {
		res.note("checkpoint of %d ops per client not reached; memory and simulated cost read at the end of the run", wl.CheckpointOps(o.Seconds))
		var err error
		if rss, err = t.srv.peakRSSMB(); err != nil {
			res.fail("read server memory: %v", err)
		}
	}
	res.set("server_peak_rss_mb", "MB", rss, 1)

	switch {
	case wl.IsQuel():
		res.set("sim_ms_per_access", "sim_ms", probe.SimMsPerAccess, probe.Executes)
	case w.All.CpReached && w.All.CpQueries > 0:
		res.set("sim_ms_per_access", "sim_ms", w.All.CpSimMs/float64(w.All.CpQueries), w.All.CpQueries)
	case w.All.Queries > 0:
		res.set("sim_ms_per_access", "sim_ms", w.All.SimMs/float64(w.All.Queries), w.All.Queries)
	}

	if w.All.Err == nil {
		if wl.IsQuel() {
			checkNeverStale(ctx, t, res)
		} else {
			checkWorldStats(ctx, t.ctl, t.world, w.All, res)
			checkIdentity(ctx, t, o, res)
		}
	}
	if err := t.teardown(ctx); err != nil {
		res.fail("%v", err)
	}
	return res, nil
}

// checkWorldStats requires the sealed world's counts to equal what the
// clients were dealt and executed, and its simulated total to equal the
// sum of the per-step costs that crossed the wire. It returns the
// statistics, nil when the server would not give them.
func checkWorldStats(ctx context.Context, ctl *client.Conn, world int, all clientRun, res *result) *wire.WorldStatsResult {
	stats, err := ctl.WorldStats(ctx, world)
	if err != nil {
		res.fail("world stats: %v", err)
		return nil
	}
	if stats.Ops != all.Ops || stats.Queries != all.Queries || stats.Updates != all.Updates {
		res.fail("world stats count ops/queries/updates %d/%d/%d, clients executed %d/%d/%d",
			stats.Ops, stats.Queries, stats.Updates, all.Ops, all.Queries, all.Updates)
	}
	if diff := math.Abs(stats.SimTotalMs - all.SimMs); diff > 1e-6*math.Max(1, stats.SimTotalMs) {
		res.fail("world sim_total_ms %.6f differs from the summed step costs %.6f", stats.SimTotalMs, all.SimMs)
	}
	return stats
}

// checkIdentity is the repo's identity chain through the root facade: a
// 1-client world of the workload's configuration, served, must report
// exactly what dbproc.Simulate computes in this process.
func checkIdentity(ctx context.Context, t *target, o options, res *result) {
	p := t.wl.Params()
	p.K, p.Q = o.verifyKQ()
	local := make(chan dbproc.SimResult, 1)
	go func() { local <- dbproc.Simulate(t.wl.SimConfig(p, o.Seed)) }()
	served, err := servedIdentityRun(ctx, t, p, false)
	want := <-local
	if err != nil {
		res.fail("identity world: %v", err)
		return
	}
	if served.SimTotalMs != want.TotalMs || served.Counters != want.Counters ||
		served.Tuples != want.TuplesReturned || served.Queries != want.Queries || served.Updates != want.Updates {
		res.fail("identity world: served sim_total_ms=%v counters=%+v tuples=%d q=%d u=%d, dbproc.Simulate gives %v %+v %d %d %d",
			served.SimTotalMs, served.Counters, served.Tuples, served.Queries, served.Updates,
			want.TotalMs, want.Counters, want.TuplesReturned, want.Queries, want.Updates)
	}
}
