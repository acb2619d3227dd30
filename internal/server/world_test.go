package server

import (
	"runtime"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/wire"
)

// TestServedWorldRetainsNothingPerOp: a bench world is stepped for as
// long as a client keeps asking, so nothing it keeps may grow with the
// steps it serves. It opens a traced (critical-path) uc-avm world over
// the wire, steps it 50 000 times in process, and requires that the
// engine kept no history entry and no critical path, and that the live
// heap grew by less than 2 MB between step 5 000 and step 50 000. A world
// that kept a history entry and a critical path per op grows by ~15 MB
// over that window.
func TestServedWorldRetainsNothingPerOp(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	const warm, steps = 5_000, 50_000
	srv, addr := startServer(t, Options{})
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.N1, p.N2 = 3, 3
	p.L = 2
	p.K, p.Q = 4_000, 48_000
	pr := dial(t, addr)
	pr.send(wire.TWorldOpen, &wire.WorldOpen{Params: p, Model: "1", Strategy: "uc-avm", Seed: 3, Clients: 1, CritPath: true})
	opened, ok := pr.recv().(*wire.WorldOpened)
	if !ok || opened.Ops[0] < steps {
		t.Fatalf("world open answered %+v, want one session of at least %d ops", opened, steps)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	var computeNs int64
	for i := 1; i <= steps; i++ {
		step, werr := srv.worldNext(opened.World, 0)
		if werr != nil || step.Done {
			t.Fatalf("step %d: %+v %v", i, step, werr)
		}
		computeNs += step.ComputeNs
		if i == warm {
			base = heap()
		}
	}
	grown := int64(heap()) - int64(base)

	res := srv.lookupWorld(opened.World).eng.Finish(0)
	if res.Ops != steps || computeNs <= 0 {
		t.Fatalf("world committed %d ops with %d ns of compute, want %d ops, traced", res.Ops, computeNs, steps)
	}
	if len(res.History) != 0 || len(res.CritPaths) != 0 {
		t.Fatalf("world kept %d history entries and %d critical paths over %d steps", len(res.History), len(res.CritPaths), steps)
	}
	if grown >= 2<<20 {
		t.Fatalf("heap grew %d bytes over steps %d..%d (%.0f B/op)", grown, warm, steps, float64(grown)/(steps-warm))
	}
	t.Logf("heap grew %d bytes over steps %d..%d", grown, warm, steps)
}
