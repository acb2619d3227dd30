package client_test

import (
	"context"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/engine"
	"dbproc/internal/experiments"
	"dbproc/internal/server"
	"dbproc/internal/sim"
	"dbproc/internal/wire"
)

// TestServedScenarioSmoke drives a hot-key-storm world through procserved
// over TWorldNext frames (DriveServed) and checks the served run is
// byte-equal to the in-process one — counters, simulated cost, committed
// history digest — and that every server handle drains to zero afterwards.
func TestServedScenarioSmoke(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	srv, addr := startServer(t, server.Options{})
	ctx := context.Background()
	params := identityParams(12, 20)

	cfg := sim.Config{
		Params: params, Model: costmodel.Model2, Strategy: costmodel.CacheInvalidate,
		Seed: 61, Scenario: "hot-key-storm", R2UpdateFraction: 0.3,
	}
	seq := sim.Run(cfg)
	e := engine.New(cfg, engine.Options{Clients: 1, RecordHistory: true})
	local := e.Run(ctx)

	res, err := experiments.DriveServed(ctx, addr, &wire.WorldOpen{
		Params: params, Model: "2", Strategy: "ci",
		Seed: 61, Scenario: "hot-key-storm", R2UpdateFraction: 0.3, Clients: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if res.Counters != seq.Counters {
		t.Fatalf("served scenario counters diverge from sequential:\n served     %v\n sequential %v",
			res.Counters, seq.Counters)
	}
	if res.SimTotalMs != seq.TotalMs {
		t.Fatalf("served scenario cost %v, sequential %v", res.SimTotalMs, seq.TotalMs)
	}
	if res.Queries != seq.Queries || res.Updates != seq.Updates {
		t.Fatalf("served op mix %d/%d, sequential %d/%d",
			res.Queries, res.Updates, seq.Queries, seq.Updates)
	}
	if want := engine.HistoryDigest(local.History); res.HistoryDigest != want {
		t.Fatalf("served scenario history digest %s, in-process %s", res.HistoryDigest, want)
	}
	drained(t, srv, false)
}

// TestServedScenarioMultiSession runs the storm world with 4 driver-pool
// sessions: the world must drain completely and commit exactly the dealt
// op counts (multi-session scenario runs are schedule-dependent, so only
// the counts — not the byte stream — are asserted).
func TestServedScenarioMultiSession(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	srv, addr := startServer(t, server.Options{})
	res, err := experiments.DriveServed(context.Background(), addr, &wire.WorldOpen{
		Params: identityParams(12, 20), Model: "2", Strategy: "uc-avm",
		Seed: 62, Scenario: "storm-adversarial", Clients: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 32 || res.Queries != 20 || res.Updates != 12 {
		t.Fatalf("served scenario ran %d ops (%dq/%du), want 32 (20q/12u)",
			res.Ops, res.Queries, res.Updates)
	}
	drained(t, srv, false)
}

// TestWorldOpenRejectsUnknownScenario: a bogus scenario name must map to
// a parse error at open time, not a server-side panic.
func TestWorldOpenRejectsUnknownScenario(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	_, addr := startServer(t, server.Options{})
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	_, err = cn.WorldOpen(context.Background(), &wire.WorldOpen{
		Params: identityParams(2, 2), Model: "1", Strategy: "ci",
		Seed: 1, Scenario: "no-such-scenario", Clients: 1,
	})
	if err == nil {
		t.Fatal("WorldOpen accepted an unknown scenario")
	}
	if werr, ok := err.(*wire.Error); !ok || werr.Code != wire.CodeParse {
		t.Fatalf("error %v, want code %q", err, wire.CodeParse)
	}
}
