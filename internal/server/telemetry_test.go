package server

import (
	"strconv"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
)

// TestServedLatencyDetector: a recorder arms the served SLO detector and
// no recorder leaves it off; an absurdly low SLO must latch the detector
// once the histogram has enough observations.
func TestServedLatencyDetector(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	if New(Options{}).det != nil {
		t.Fatal("a server without a recorder armed the detectors")
	}
	rec := telemetry.NewRecorder(256)
	srv := New(Options{Recorder: rec})
	if srv.det == nil {
		t.Fatal("a recorder did not arm the detectors")
	}
	th := telemetry.DefaultThresholds()
	th.ServedP99Ns = 1 // everything breaches
	srv.det = telemetry.NewDetectors(th, rec)
	pr := dial(t, serve(t, srv))
	for i := 0; i < 40; i++ {
		if _, ok := pr.call(wire.TPing, &wire.Ping{}).(*wire.Pong); !ok {
			t.Fatalf("ping %d not answered with a pong", i)
		}
	}
	fired := 0
	evs, _ := rec.Snapshot()
	for _, ev := range evs {
		if ev.Kind == telemetry.EvDetector && ev.Name == "served_p99" {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("served_p99 fired %d times, want exactly once (latched)", fired)
	}
}

// TestWorldLockSeriesWithoutCritPath: every engine profiles its lock
// table, so a world opened without CritPath exports its per-lock series,
// labelled with the world, once an update step has run.
func TestWorldLockSeriesWithoutCritPath(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.N1, p.N2 = 3, 3
	p.L = 2
	p.K, p.Q = 20, 20
	pr := dial(t, addr)
	opened, ok := pr.call(wire.TWorldOpen, &wire.WorldOpen{Params: p, Model: "1", Strategy: "uc-rvm", Seed: 3, Clients: 1}).(*wire.WorldOpened)
	if !ok {
		t.Fatal("world open refused")
	}
	for {
		step, ok := pr.call(wire.TWorldNext, &wire.WorldNext{World: opened.World}).(*wire.WorldStep)
		if !ok || step.Done {
			t.Fatalf("world ran out of steps before an update: %+v", step)
		}
		if step.Update {
			break
		}
	}
	world := strconv.Itoa(opened.World)
	for _, m := range srv.TelemetryMetrics() {
		if m.Name == "dbproc_lock_acquires_total" && m.Labels["lock"] == "rel:r1" && m.Labels["world"] == world && m.Value >= 1 {
			return
		}
	}
	t.Fatalf(`no dbproc_lock_acquires_total{lock="rel:r1",world=%q} after an update step`, world)
}
