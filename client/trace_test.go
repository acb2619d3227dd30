package client_test

import (
	"bytes"
	"context"
	"database/sql"
	"strings"
	"sync"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/dbtest"
	"dbproc/internal/obs"
	"dbproc/internal/server"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
)

// TestServerBreakdownSumsToWall is the tentpole invariant under load: 8
// traced clients drive a critical-path scenario world plus gate-bound
// statements concurrently, and every server breakdown — on the wire and
// in the exported JSONL — partitions its request's wall time exactly.
// Run it under -race: the breakdown path touches the shared sketch map,
// the trace sinks, and the per-conn tracing state from many goroutines.
func TestServerBreakdownSumsToWall(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	var srvSpans bytes.Buffer
	srv, addr := startServer(t, server.Options{TraceSink: obs.NewWireSpanSink(&srvSpans)})

	var cliSpans bytes.Buffer
	tracer := client.NewTracer(obs.NewWireSpanSink(&cliSpans))

	const clients = 8
	conns := make([]*client.Conn, clients)
	for i := range conns {
		cn, err := client.DialTraced(addr, tracer)
		if err != nil {
			t.Fatal(err)
		}
		defer cn.Close()
		conns[i] = cn
	}
	ctx := context.Background()

	// Seed a tiny schema so the statement path has real work to do.
	if _, err := conns[0].Exec(ctx, "create emp (tid, age) cluster on age"); err != nil {
		t.Fatal(err)
	}

	opened, err := conns[0].WorldOpen(ctx, &wire.WorldOpen{
		Params: identityParams(10, 20), Model: "1", Strategy: "ci",
		Seed: 7, Scenario: "hot-key-storm", R2UpdateFraction: 0.3,
		Clients: clients, CritPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if opened.Sessions != clients {
		t.Fatalf("world opened %d sessions, want %d", opened.Sessions, clients)
	}

	var mu sync.Mutex
	var phases int
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cn := conns[i]
			// A couple of gate-bound statements: their breakdowns carry
			// admission/gate/compute.
			for j := 0; j < 2; j++ {
				res, err := cn.Exec(ctx, "retrieve (emp.all)")
				if err != nil {
					t.Errorf("conn %d exec: %v", i, err)
					return
				}
				if res.Server == nil || res.Server.SegmentSum() != res.Server.WallNs {
					t.Errorf("conn %d: stmt breakdown %+v does not sum to wall", i, res.Server)
					return
				}
			}
			// Drain the world session: lock-wait/io/recompute/compute
			// come from the engine's critical-path decomposition.
			for {
				step, err := cn.WorldNext(ctx, opened.World, i)
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if step.Server == nil {
					t.Errorf("session %d: traced step missing breakdown", i)
					return
				}
				if got, want := step.Server.SegmentSum(), step.Server.WallNs; got != want {
					t.Errorf("session %d: segments sum %d != wall %d", i, got, want)
					return
				}
				if step.Done {
					return
				}
				if step.Phase != "" {
					mu.Lock()
					phases++
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if phases == 0 {
		t.Error("no step reported a scenario phase on a scenario world")
	}
	if _, err := conns[0].WorldStats(ctx, opened.World); err != nil {
		t.Fatal(err)
	}
	if err := conns[0].WorldClose(ctx, opened.World); err != nil {
		t.Fatal(err)
	}

	// The server exports a request's span after it has written the
	// response, so a connection's last span may still be on its way when
	// the client has its answer: drain the server — Shutdown returns once
	// every connection goroutine has exited — before reading its sink.
	for _, cn := range conns {
		cn.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The exported JSONL must uphold the same invariant, and the two
	// sides must merge into one timeline with cross-wire arrows.
	st := tracer.Stats()
	if st.Requests == 0 || st.WithServer == 0 {
		t.Fatalf("tracer saw no traced requests: %+v", st)
	}
	if st.ClientWallNs < st.ServerWallNs {
		t.Fatalf("client wall %d below server wall %d", st.ClientWallNs, st.ServerWallNs)
	}
	srvTrace, err := obs.ReadTrace(bytes.NewReader(srvSpans.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.CheckWireSpans(srvTrace.WireSpans); len(errs) != 0 {
		t.Fatalf("server spans violate sum-to-total: %v", errs[0])
	}
	cliTrace, err := obs.ReadTrace(bytes.NewReader(cliSpans.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	merged, err2 := obs.MergeWireTrace(&bytes.Buffer{},
		append(cliTrace.WireSpans, srvTrace.WireSpans...))
	if err2 != nil {
		t.Fatal(err2)
	}
	if merged.Pairs == 0 || merged.Arrows != 2*merged.Pairs {
		t.Fatalf("merge stats %+v, want matched pairs with 2 arrows each", merged)
	}
}

// TestPooledConnStats: per-connection accounting must follow the pool's
// physical connections — a reused connection accumulates on one row, and
// the rows sum to the aggregate (no double counting).
func TestPooledConnStats(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, server.Options{FetchBatch: 2})
	tracer := client.NewTracer(nil)
	db := sql.OpenDB(client.NewConnector(addr, tracer))
	defer db.Close()
	db.SetMaxOpenConns(2)
	seedSchema(t, db)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				rows, err := db.Query("retrieve (emp.age)")
				if err != nil {
					t.Error(err)
					return
				}
				countRows(t, rows)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	agg := tracer.Stats()
	per := tracer.ConnStats()
	if len(per) == 0 || len(per) > 2 {
		t.Fatalf("%d traced connections, pool capped at 2", len(per))
	}
	var sum client.Stats
	var total int64
	for _, s := range per {
		total += s.Requests
		sum.ClientWallNs += s.ClientWallNs
		sum.ServerWallNs += s.ServerWallNs
		sum.NetworkNs += s.NetworkNs
	}
	if total != agg.Requests {
		t.Fatalf("per-conn requests %d != aggregate %d", total, agg.Requests)
	}
	if sum.ClientWallNs != agg.ClientWallNs || sum.ServerWallNs != agg.ServerWallNs || sum.NetworkNs != agg.NetworkNs {
		t.Fatalf("per-conn sums %+v diverge from aggregate %+v", sum, agg)
	}
	if agg.NetworkNs+agg.ServerWallNs > agg.ClientWallNs {
		t.Fatalf("network %d + server %d exceeds client wall %d",
			agg.NetworkNs, agg.ServerWallNs, agg.ClientWallNs)
	}
	db.Close()
	drained(t, srv, true)
}

// TestMidCursorCloseStats: closing rows mid-cursor sends cursor.close;
// the tracer must count it as its own request on the same connection,
// and the server must drop the cursor handle.
func TestMidCursorCloseStats(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, server.Options{FetchBatch: 2})
	tracer := client.NewTracer(nil)
	db := sql.OpenDB(client.NewConnector(addr, tracer))
	defer db.Close()
	db.SetMaxOpenConns(1)
	seedSchema(t, db)
	before := tracer.Stats().Requests

	rows, err := db.Query("retrieve (emp.age)") // 6 rows, batch 2 -> cursor
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	drained(t, srv, false)

	// Exactly two traced requests: the cursored stmt and cursor.close.
	if got := tracer.Stats().Requests - before; got != 2 {
		t.Fatalf("mid-cursor close produced %d traced requests, want 2", got)
	}
	per := tracer.ConnStats()
	if len(per) != 1 {
		t.Fatalf("%d connections, want 1", len(per))
	}
}

// TestCancelFlightEvent: a TCancel arriving for a traced in-flight
// request must surface as a flight event naming the trace (satellite 1
// — cancels used to vanish silently).
func TestCancelFlightEvent(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	rec := telemetry.NewRecorder(256)
	srv, addr := startServer(t, server.Options{Recorder: rec})

	tracer := client.NewTracer(nil)
	holder, err := client.DialTraced(addr, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	waiter, err := client.DialTraced(addr, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()

	ctx := context.Background()
	tx, err := holder.Begin(ctx) // holds the statement gate
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := waiter.Exec(cctx, "delete from emp where emp.age < 0"); err == nil {
		t.Fatal("gate-blocked exec did not cancel")
	}
	if err := holder.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		evs, _ := rec.Snapshot()
		for _, ev := range evs {
			if ev.Kind == telemetry.EvCancel && strings.HasPrefix(ev.Detail, "trace=") {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no server.cancel flight event carrying a trace id")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Stat().Cancels == 0 {
		t.Fatal("cancel counter did not move")
	}
	if tracer.Stats().Cancelled == 0 {
		t.Fatal("tracer did not count the cancelled request")
	}
}

// TestServedRequestMetrics: the per-type service-time sketches must
// export dbproc_server_request_seconds quantile series (satellite 2).
func TestServedRequestMetrics(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, server.Options{})
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	if _, err := cn.Exec(ctx, "create emp (tid, age) cluster on age"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := cn.Exec(ctx, "retrieve (emp.all)"); err != nil {
			t.Fatal(err)
		}
	}
	var quantiles, count int
	for _, m := range srv.TelemetryMetrics() {
		switch m.Name {
		case "dbproc_server_request_seconds":
			if m.Labels["type"] == "stmt" {
				quantiles++
				if m.Value < 0 {
					t.Fatalf("negative quantile %+v", m)
				}
			}
		case "dbproc_server_request_seconds_count":
			if m.Labels["type"] == "stmt" {
				count++
				if m.Value < 20 {
					t.Fatalf("stmt count %v, want >= 20", m.Value)
				}
			}
		}
	}
	if quantiles != 4 || count != 1 {
		t.Fatalf("got %d stmt quantile series and %d count series, want 4 and 1", quantiles, count)
	}
}

// TestUntracedRequestsCarryNothing: a plain Dial must leave frames
// trace-free end to end — no breakdown comes back, and the server
// exports no spans. (The byte-level half of the contract is pinned in
// internal/wire's identity test.)
func TestUntracedRequestsCarryNothing(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	var srvSpans bytes.Buffer
	sink := obs.NewWireSpanSink(&srvSpans)
	_, addr := startServer(t, server.Options{TraceSink: sink})
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	if _, err := cn.Exec(ctx, "create emp (tid, age) cluster on age"); err != nil {
		t.Fatal(err)
	}
	res, err := cn.Exec(ctx, "retrieve (emp.all)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Server != nil {
		t.Fatalf("untraced request got a breakdown: %+v", res.Server)
	}
	if n := sink.Count(); n != 0 {
		t.Fatalf("server exported %d spans for untraced requests", n)
	}
}
