package client_test

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/engine"
	"dbproc/internal/obs"
	"dbproc/internal/server"
	"dbproc/internal/sim"
	"dbproc/internal/wire"
)

func identityParams(k, q int) costmodel.Params {
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.F2 = 0.02
	p.N1 = 3
	p.N2 = 3
	p.L = 2
	p.SF = 0.5
	p.Z = 0.3
	p.K = float64(k)
	p.Q = float64(q)
	return p
}

// TestServedIdentity extends TestDiagnosisPreservesSequentialIdentity
// across the wire: a 1-client workload driven operation by operation
// through a loopback procserved must reproduce the sequential
// simulator's counters and cost exactly, commit the same history
// (digest) as an in-process engine run, and serialize a byte-identical
// cache-efficacy ledger.
func TestServedIdentity(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	// Tracing is ON for the whole run: propagated contexts and server
	// breakdowns ride every frame, and identity must still hold — the
	// observability layer cannot perturb what the engine computes.
	var spans bytes.Buffer
	_, addr := startServer(t, server.Options{TraceSink: obs.NewWireSpanSink(&spans)})
	cn, err := client.DialTraced(addr, client.NewTracer(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	params := identityParams(15, 25)

	// Every strategy under both procedure models: the full grid the
	// sequential-identity anchor covers in-process.
	for _, strat := range costmodel.Strategies {
		for _, m := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			strategy, model := strat.Short(), strconv.Itoa(int(m))
			t.Run(fmt.Sprintf("%s/model%s", strategy, model), func(t *testing.T) {
				cfg := sim.Config{
					Params: params, Model: m, Strategy: strat,
					Seed: 41, R2UpdateFraction: 0.3,
				}
				seq := sim.Run(cfg)

				// In-process reference: engine, 1 client, diagnosis on —
				// the configuration the served world must reproduce.
				lcfg := cfg
				lcfg.Ledger = cache.NewLedger()
				e := engine.New(lcfg, engine.Options{Clients: 1, RecordHistory: true, CritPath: true})
				local := e.Run(context.Background())
				var localLedger bytes.Buffer
				meta := cache.LedgerMeta{
					Strategy: lcfg.Strategy.String(), Model: int(m), Clients: 1,
					Seed: lcfg.Seed, Queries: local.Queries, Updates: local.Updates,
					TotalMs: local.SimTotalMs,
				}
				if err := cache.WriteLedger(&localLedger, meta, lcfg.Ledger); err != nil {
					t.Fatal(err)
				}

				// Served run: open a world, drive session 0 to exhaustion.
				opened, err := cn.WorldOpen(ctx, &wire.WorldOpen{
					Params: params, Model: model, Strategy: strategy,
					Seed: 41, R2UpdateFraction: 0.3, Clients: 1,
					Ledger: true, CritPath: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cn.WorldClose(ctx, opened.World)
				if opened.Sessions != 1 || len(opened.Ops) != 1 {
					t.Fatalf("world shape %+v, want 1 session", opened)
				}
				steps := 0
				for {
					step, err := cn.WorldNext(ctx, opened.World, 0)
					if err != nil {
						t.Fatalf("step %d: %v", steps, err)
					}
					if step.Done {
						break
					}
					steps++
					if steps > opened.Ops[0] {
						t.Fatalf("world never drained after %d steps", steps)
					}
				}
				if steps != opened.Ops[0] {
					t.Fatalf("executed %d ops, world advertised %d", steps, opened.Ops[0])
				}
				stats, err := cn.WorldStats(ctx, opened.World)
				if err != nil {
					t.Fatal(err)
				}

				// Identity against the sequential simulator...
				if stats.Counters != seq.Counters {
					t.Fatalf("served counters diverge from sequential:\n served     %v\n sequential %v",
						stats.Counters, seq.Counters)
				}
				if stats.SimTotalMs != seq.TotalMs {
					t.Fatalf("served cost %v, sequential %v", stats.SimTotalMs, seq.TotalMs)
				}
				// ...and against the in-process engine: same committed
				// history, byte-identical ledger.
				if want := engine.HistoryDigest(local.History); stats.HistoryDigest != want {
					t.Fatalf("history digest %s, in-process %s", stats.HistoryDigest, want)
				}
				if !bytes.Equal(stats.Ledger, localLedger.Bytes()) {
					t.Fatalf("served ledger differs from in-process ledger:\n--- served\n%s\n--- local\n%s",
						stats.Ledger, localLedger.Bytes())
				}
				if stats.Ops != local.Ops || stats.Queries != local.Queries || stats.Updates != local.Updates {
					t.Fatalf("op counts diverge: served %d/%d/%d, local %d/%d/%d",
						stats.Ops, stats.Queries, stats.Updates, local.Ops, local.Queries, local.Updates)
				}
			})
		}
	}
}
