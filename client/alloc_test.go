package client_test

import (
	"context"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/server"
	"dbproc/internal/wire"
)

// TestPingAllocations: an empty round trip — client and in-process
// server together, as the benchmark's ladder measures it — made 17
// allocations when every request spawned a watcher goroutine with two
// channels, both ends went through bufio and encoding/json, and the
// server handed each frame to a handler goroutine under a fresh context.
// What remains is the decoded messages and, under a cancellable context,
// the registration of the cancel hook.
func TestPingAllocations(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	_, addr := startServer(t, server.Options{})
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	for name, c := range map[string]struct {
		ctx   func() (context.Context, context.CancelFunc)
		limit float64
	}{
		"background":  {func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, 1},
		"cancellable": {func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }, 4},
	} {
		ctx, cancel := c.ctx()
		allocs := testing.AllocsPerRun(200, func() {
			if err := cn.Ping(ctx); err != nil {
				t.Fatal(err)
			}
		})
		cancel()
		t.Logf("%s context: %.1f allocations per ping", name, allocs)
		if allocs > c.limit {
			t.Errorf("%s context: %.1f allocations per ping, want <= %.0f (17 before)", name, allocs, c.limit)
		}
	}
}

// TestWorldStepAllocations pins what one served world step allocates
// end to end — client request, wire, server dispatch, the engine's op
// and the reply — for each world shape the benchmark serves: a cached
// uc-avm read and a C&I step at hot-read's K and Q, and a uc-rvm step at
// update-heavy's, where one op in two is an update. Each world runs one
// session at seed 3 with uniform access (Z = 0.5), and is warmed by 200
// steps before AllocsPerRun averages 2 000 more. The bounds are the
// counts measured before the engine dealt the op stream itself (9, 13
// and 145, the same under the race detector): moving the deal must not
// add work to a step.
func TestWorldStepAllocations(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	_, addr := startServer(t, server.Options{})
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	for _, c := range []struct {
		strategy  string
		k, q      float64
		bound     float64
		raceBound float64
	}{
		{"uc-avm", 4_000, 500_000, 9, 9},
		{"ci", 4_000, 500_000, 13, 13},
		{"uc-rvm", 35_000, 35_000, 145, 145},
	} {
		p := costmodel.Default()
		p.K, p.Q, p.Z = c.k, c.q, 0.5
		opened, err := cn.WorldOpen(ctx, &wire.WorldOpen{Params: p, Model: "1", Strategy: c.strategy, Seed: 3, Clients: 1})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if st, err := cn.WorldNext(ctx, opened.World, 0); err != nil || st.Done {
				t.Fatalf("%s step: %+v, %v", c.strategy, st, err)
			}
		}
		for i := 0; i < 200; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(2000, step)
		t.Logf("%s: %.1f allocations per step", c.strategy, allocs)
		if allocs > c.bound {
			t.Errorf("%s: %.1f allocations per world step, want <= %.0f", c.strategy, allocs, c.bound)
		}
		if err := cn.WorldClose(ctx, opened.World); err != nil {
			t.Fatal(err)
		}
	}
}
