package client_test

import (
	"context"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/dbtest"
	"dbproc/internal/server"
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
