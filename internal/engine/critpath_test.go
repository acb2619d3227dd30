package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
)

// TestCritPathSumsToWall is the acceptance property for the critical-path
// decomposition: under an 8-client contended run, every committed op's
// wall time splits exactly — WaitNs + IONs + RecomputeNs + ComputeNs ==
// WallNs with ComputeNs never negative — and every lock-wait blame edge
// resolves to a real holder (the engine tags every acquisition, so the
// happens-before chain through the lock always delivers a tag).
func TestCritPathSumsToWall(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	for _, strat := range []costmodel.Strategy{costmodel.CacheInvalidate, costmodel.UpdateCacheAVM} {
		t.Run(fmt.Sprintf("%v", strat), func(t *testing.T) {
			cfg := testConfig(strat, costmodel.Model1, 90210, 32, 48)
			cfg.Ledger = cache.NewLedger()
			e := New(cfg, Options{Clients: 8, CritPath: true, RecordHistory: true})

			// Organic collisions are scheduler-dependent (on one CPU,
			// sub-millisecond ops essentially never overlap), so force
			// contention deterministically: hold r1 exclusively — every
			// op's footprint includes it — while the sessions start, so
			// each session's first op incurs a real, blamed wait.
			var holdout Footprint
			holdout.Exclusive(RelLock("r1"))
			h := e.locks.AcquireAs(holdout, 99, "test holdout")
			done := make(chan Result, 1)
			go func() { done <- e.Run(context.Background()) }()
			time.Sleep(20 * time.Millisecond)
			h.Release()
			res := <-done

			if len(res.CritPaths) != res.Ops {
				t.Fatalf("%d crit paths for %d ops", len(res.CritPaths), res.Ops)
			}
			waited := false
			var wait, io, recompute, compute int64
			for _, cp := range res.CritPaths {
				wait, io, recompute, compute = wait+cp.WaitNs, io+cp.IONs, recompute+cp.RecomputeNs, compute+cp.ComputeNs
				if sum := cp.WaitNs + cp.IONs + cp.RecomputeNs + cp.ComputeNs; sum != cp.WallNs {
					t.Fatalf("seq %d: segments sum to %d, wall %d", cp.Seq, sum, cp.WallNs)
				}
				if cp.ComputeNs < 0 {
					t.Fatalf("seq %d: negative compute %d (wait %d, io %d, recompute %d, wall %d)",
						cp.Seq, cp.ComputeNs, cp.WaitNs, cp.IONs, cp.RecomputeNs, cp.WallNs)
				}
				if cp.WaitNs < 0 || cp.IONs < 0 || cp.RecomputeNs < 0 {
					t.Fatalf("seq %d: negative segment %+v", cp.Seq, cp)
				}
				var blameNs int64
				for _, b := range cp.Blame {
					if b.HolderSession < 0 || b.HolderOp == "" || b.HolderOp == "unknown" {
						t.Fatalf("seq %d: unresolved blame edge %+v", cp.Seq, b)
					}
					if b.Lock == "" {
						t.Fatalf("seq %d: blame edge without a lock name", cp.Seq)
					}
					blameNs += b.WaitNs
					waited = true
				}
				if blameNs != cp.WaitNs {
					t.Fatalf("seq %d: blame edges sum to %dns, wait segment %dns", cp.Seq, blameNs, cp.WaitNs)
				}
			}
			if !waited {
				t.Fatal("run produced no lock waits despite the holdout; property vacuous")
			}
			// The totals are what a run without per-op records reports
			// (procsim -critpath): they must be the per-op sums exactly.
			if res.SegWaitNs != wait || res.SegIONs != io || res.SegRecomputeNs != recompute || res.SegComputeNs != compute {
				t.Fatalf("segment totals wait %d io %d recompute %d compute %d, per-op sums %d %d %d %d",
					res.SegWaitNs, res.SegIONs, res.SegRecomputeNs, res.SegComputeNs, wait, io, recompute, compute)
			}
			if len(res.TopBlockers) == 0 {
				t.Fatal("waits occurred but TopBlockers is empty")
			}
			blamedHoldout := false
			for _, b := range res.TopBlockers {
				if b.Waits <= 0 || b.WaitNs <= 0 || b.HolderOp == "" {
					t.Fatalf("malformed blocker stat %+v", b)
				}
				if b.HolderSession == 99 && b.HolderOp == "test holdout" {
					blamedHoldout = true
				}
			}
			if !blamedHoldout {
				t.Fatalf("holdout session missing from blockers: %+v", res.TopBlockers)
			}
		})
	}
}

// TestBlameWithoutCritPath: lock waits are timed and blamed on every
// engine, not only under CritPath. TestCritPathSumsToWall's holdout, run
// with a recorder and no other option, must be named in TopBlockers, in
// the contention profile's lock activity, and in the detail of a flight
// lock.acquire event.
func TestBlameWithoutCritPath(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	rec := telemetry.NewRecorder(1 << 14)
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 90210, 32, 48)
	e := New(cfg, Options{Clients: 8, Recorder: rec})
	var holdout Footprint
	holdout.Exclusive(RelLock("r1"))
	h := e.locks.AcquireAs(holdout, 99, "test holdout")
	done := make(chan Result, 1)
	go func() { done <- e.Run(context.Background()) }()
	time.Sleep(20 * time.Millisecond)
	h.Release()
	res := <-done

	blamed := false
	for _, b := range res.TopBlockers {
		if b.HolderSession == 99 && b.HolderOp == "test holdout" && b.Waits > 0 && b.WaitNs > 0 {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("holdout session missing from blockers: %+v", res.TopBlockers)
	}
	if len(res.Contention) == 0 {
		t.Fatal("no contention profile without CritPath")
	}
	events, _ := rec.Snapshot()
	for _, ev := range events {
		if ev.Kind == telemetry.EvLockAcquire && ev.Detail == "held by session 99 (test holdout)" {
			return
		}
	}
	t.Fatalf("no lock.acquire event blames the holdout among %d events", len(events))
}

// TestDiagnosisPreservesSequentialIdentity is the no-observer-effect
// gate for the whole diagnosis layer: one client with critical-path
// profiling AND the cache-efficacy ledger enabled must still reproduce
// the bare sequential simulator's cost counters exactly, and two
// identical runs must serialize byte-identical ledgers.
func TestDiagnosisPreservesSequentialIdentity(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	for _, strat := range allStrategies {
		for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			t.Run(fmt.Sprintf("%v/%v", strat, model), func(t *testing.T) {
				cfg := testConfig(strat, model, 41, 15, 25)
				seq := sim.Run(cfg)

				ledgerBytes := func() []byte {
					lcfg := cfg
					lcfg.Ledger = cache.NewLedger()
					e := New(lcfg, Options{Clients: 1, CritPath: true})
					res := e.Run(context.Background())
					if res.Counters != seq.Counters {
						t.Fatalf("diagnosis perturbed counters:\n engine     %v\n sequential %v",
							res.Counters, seq.Counters)
					}
					if res.SimTotalMs != seq.TotalMs {
						t.Fatalf("simulated cost %v, sequential %v", res.SimTotalMs, seq.TotalMs)
					}
					var buf bytes.Buffer
					meta := cache.LedgerMeta{
						Strategy: lcfg.Strategy.String(), Model: int(model), Clients: 1,
						Seed: lcfg.Seed, Queries: res.Queries, Updates: res.Updates,
						TotalMs: res.SimTotalMs,
					}
					if err := cache.WriteLedger(&buf, meta, lcfg.Ledger); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}

				a, b := ledgerBytes(), ledgerBytes()
				if !bytes.Equal(a, b) {
					t.Fatalf("ledger serialization not deterministic:\n--- run A\n%s\n--- run B\n%s", a, b)
				}
			})
		}
	}
}
