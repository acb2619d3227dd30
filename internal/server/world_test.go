package server

import (
	"runtime"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/wire"
)

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServedWorldStreamIsCompact: a served world holds its whole
// canonical stream from open to close. Opening a world of the hot-read
// benchmark's shape (uc-avm, model 1, the paper's defaults with K = 4 000
// and Q = 500 000 at uniform access, two sessions) must retain less than
// 25 MB of heap. The world keeps its pages, its cache and a 4-byte word
// per op (~2 MB); a world that held the stream as Ops would keep 28 MB of
// them on top and retain ~42 MB.
func TestServedWorldStreamIsCompact(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	srv, addr := startServer(t, Options{})
	p := costmodel.Default()
	p.K, p.Q, p.Z = 4_000, 500_000, 0.5
	pr := dial(t, addr)
	before := liveHeap()
	pr.send(wire.TWorldOpen, &wire.WorldOpen{Params: p, Model: "1", Strategy: "uc-avm", Seed: 1, Clients: 2})
	opened, ok := pr.recv().(*wire.WorldOpened)
	if !ok || opened.Ops[0]+opened.Ops[1] != 504_000 {
		t.Fatalf("world open answered %+v, want two sessions sharing 504 000 ops", opened)
	}
	retained := int64(liveHeap()) - int64(before)
	if srv.lookupWorld(opened.World) == nil {
		t.Fatal("world not registered")
	}
	if retained >= 25<<20 {
		t.Fatalf("an open hot-read world retains %.1f MB of heap, want < 25 MB", float64(retained)/(1<<20))
	}
	t.Logf("an open hot-read world retains %.1f MB of heap", float64(retained)/(1<<20))
}

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

	var base uint64
	var computeNs int64
	for i := 1; i <= steps; i++ {
		step, werr := srv.worldNext(opened.World, 0)
		if werr != nil || step.Done {
			t.Fatalf("step %d: %+v %v", i, step, werr)
		}
		computeNs += step.ComputeNs
		if i == warm {
			base = liveHeap()
		}
	}
	grown := int64(liveHeap()) - int64(base)

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

// TestWorldOpenedOpsAreTheDeal: WorldOpened.Ops announces each session's
// share of the stream, and stepping a session commits exactly that many
// ops before it answers Done.
func TestWorldOpenedOpsAreTheDeal(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.N1, p.N2 = 3, 3
	p.K, p.Q = 11, 20
	pr := dial(t, addr)
	pr.send(wire.TWorldOpen, &wire.WorldOpen{Params: p, Model: "1", Strategy: "ci", Seed: 5, Clients: 3})
	opened, ok := pr.recv().(*wire.WorldOpened)
	if !ok || len(opened.Ops) != 3 || opened.Ops[0]+opened.Ops[1]+opened.Ops[2] != 31 {
		t.Fatalf("world open answered %+v, want three sessions sharing 31 ops", opened)
	}
	for s, want := range opened.Ops {
		steps := 0
		for {
			step, werr := srv.worldNext(opened.World, s)
			if werr != nil {
				t.Fatal(werr)
			}
			if step.Done {
				break
			}
			steps++
		}
		if steps != want {
			t.Errorf("session %d committed %d ops, WorldOpened announced %d", s, steps, want)
		}
	}
}

// TestWorldOpenRefusesWhatItCannotBuild: a WorldOpen whose parameters
// fail Validate is answered with a parse error, not a dead server — the
// same connection then opens a valid world — and one asking for more
// sessions than the server admits connections is refused with CodeLimit.
func TestWorldOpenRefusesWhatItCannotBuild(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{MaxConns: 4})
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.N1, p.N2 = 3, 3
	p.K, p.Q = 4, 6
	pr := dial(t, addr)

	bad := p
	bad.N = -1
	wantError(t, pr.call(wire.TWorldOpen, &wire.WorldOpen{Params: bad, Model: "1", Strategy: "ci", Seed: 1}), wire.CodeParse)
	bad = p
	bad.Z = 1
	wantError(t, pr.call(wire.TWorldOpen, &wire.WorldOpen{Params: bad, Model: "1", Strategy: "ci", Seed: 1}), wire.CodeParse)
	if n := srv.nWorlds.Load(); n != 0 {
		t.Fatalf("refused opens hold %d world slots", n)
	}

	opened, ok := pr.call(wire.TWorldOpen, &wire.WorldOpen{Params: p, Model: "1", Strategy: "ci", Seed: 1, Clients: 4}).(*wire.WorldOpened)
	if !ok || opened.Sessions != 4 {
		t.Fatalf("a valid open after refused ones answered %+v", opened)
	}
	wantError(t, pr.call(wire.TWorldOpen, &wire.WorldOpen{Params: p, Model: "1", Strategy: "ci", Seed: 1, Clients: 5}), wire.CodeLimit)
	if n := srv.nWorlds.Load(); n != 1 {
		t.Fatalf("%d world slots held, want the one valid world's", n)
	}
}
