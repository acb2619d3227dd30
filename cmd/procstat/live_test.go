package main

import (
	"bytes"
	"context"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/server"
	"dbproc/internal/telemetry"
)

// serveHub serves src and rec on a telemetry hub at 127.0.0.1:0 for the
// rest of the test and returns its URL.
func serveHub(t *testing.T, src telemetry.Source, rec *telemetry.Recorder) string {
	t.Helper()
	hub := telemetry.NewHub()
	hub.SetSource(src)
	hub.SetRecorder(rec)
	addr, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	return "http://" + addr
}

// liveProcstat runs procstat on operands and returns its output.
func liveProcstat(t *testing.T, operands ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(operands, &out)
	return out.String(), err
}

// engineHub runs a 2-client engine with critical-path profiling, a flight
// recorder and one blamed lock wait (session 99 holds rel:r1 for 20 ms),
// serves it on a hub and returns the hub's URL.
func engineHub(t *testing.T) string {
	t.Helper()
	rec := telemetry.NewRecorder(1 << 12)
	e := engine.New(smallConfig(costmodel.CacheInvalidate), engine.Options{Clients: 2, CritPath: true, Recorder: rec})
	var holdout engine.Footprint
	holdout.Exclusive(engine.RelLock("r1"))
	h := e.Locks().AcquireAs(holdout, 99, "test holdout")
	done := make(chan engine.Result, 1)
	go func() { done <- e.Run(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	h.Release()
	res := <-done
	if res.Queries+res.Updates != 30 {
		t.Fatalf("engine ran %d ops, want 30", res.Queries+res.Updates)
	}
	return serveHub(t, e, rec)
}

// TestLiveRenderFrame: procstat on an engine's hub renders the headline
// counters, the wall and simulated latency quantiles, the per-lock
// contention table and the event tail's timeline, each capped by -topk.
func TestLiveRenderFrame(t *testing.T) {
	url := engineHub(t)
	out, err := liveProcstat(t, url+"/")
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out,
		"== live "+url+" ==",
		"  sessions                          2\n",
		"  committed ops                    30\n",
		"  op latency (wall):  p50=",
		"  op latency (sim):  p50=",
		"lock contention ["+url+"]: top ",
		"  rel:r1 ",
		`== flight dump, reason "tail": 10 events retained`,
		" op.commit ",
	)
	// Rows are capped by -topk, the event tail included.
	out, err = liveProcstat(t, "-topk", "1", url)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out, "(top 1 of ", `reason "tail": 1 events retained`)
}

// TestLiveRenderBlamePanel: procstat on an engine's hub renders the
// critical-path split and the blocker table (lock, holder session and op,
// wait count) from the dbproc_critpath_* and dbproc_blame_* series.
func TestLiveRenderBlamePanel(t *testing.T) {
	url := engineHub(t)
	out, err := liveProcstat(t, url)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out,
		"  critical path:  lock_wait=",
		"top blockers by wall-clock wait",
		"rel:r1         held by session 99 (test holdout): ",
	)
	if !regexp.MustCompile(`held by session 99 \(test holdout\): \d+ wait\(s\), [\d.]+ ms total`).MatchString(out) {
		t.Errorf("blocker row lacks its wait count and total:\n%s", out)
	}
	// The contention table's max wait comes from
	// dbproc_lock_max_wait_seconds: the holdout kept rel:r1 for 20 ms, so
	// some session waited for it.
	row := regexp.MustCompile(`(?m)^  rel:r1 +\d+ +\d+ +[\d.]+ms +[\d.]+% +[\d.]+ms +(\d+)us$`).FindStringSubmatch(out)
	if row == nil || row[1] == "0" {
		t.Errorf("the rel:r1 contention row lacks a non-zero max wait:\n%s", out)
	}
	// The blocker rows carry the blame series' totals; /metrics exports no
	// maximum wait per blocker, so none is printed.
	if regexp.MustCompile(`held by session 99 \(test holdout\): \d+ wait\(s\), [\d.]+ ms total, max`).MatchString(out) {
		t.Errorf("a scraped blocker row printed a maximum wait:\n%s", out)
	}
}

// TestLiveServedSource: procstat on procserved's hub renders the serving
// counters and the per-request-type service-time table.
func TestLiveServedSource(t *testing.T) {
	srv := server.New(server.Options{})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := serveHub(t, srv, nil)
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{"create emp (tid, age) cluster on age", "append to emp (tid = 1, age = 30)"} {
		if _, err := cn.Exec(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	cn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	out, err := liveProcstat(t, url)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, out,
		"  serving:  conns=0  requests=",
		"  served requests (top 1 of 1 types):",
		"    request            count        p50        p90        p95        p99\n",
		"    stmt                   2 ",
	)
	// A process without the engine series renders none of their panels.
	for _, absent := range []string{"critical path:", "top blockers", "lock contention", "op latency"} {
		if strings.Contains(out, absent) {
			t.Errorf("served scrape rendered %q:\n%s", absent, out)
		}
	}
}

// TestLiveSourceErrors: an unreachable endpoint and a 404 each fail the
// run with the URL named.
func TestLiveSourceErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	hub := serveHub(t, nil, nil)
	for _, tc := range []struct{ url, want string }{
		{dead, dead + "/metrics"},
		{hub + "/nope", hub + "/nope/metrics: 404"},
	} {
		if _, err := liveProcstat(t, tc.url); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("procstat %s: err = %v, want it to name %q", tc.url, err, tc.want)
		}
	}
}
