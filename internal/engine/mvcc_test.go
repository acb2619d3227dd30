package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/telemetry"
)

// TestMVCCSnapshotSoak is the snapshot-read soak: 8 sessions under the
// storm-adversarial scenario (hot-key query storm stacked on updates
// aimed at the densest i-lock band) — every query reads a lock-free
// snapshot while the adversarial updates churn version chains
// as fast as they can. Meant for -race (scripts/verify.sh tier 3). After
// each run the lifted history must pass the SI-aware oracle and every
// procedure must agree with a fresh recompute. A stall leaves a flight
// dump on disk via the watchdog hook (render with procstat).
func TestMVCCSnapshotSoak(t *testing.T) {
	rec := telemetry.NewRecorder(1 << 14)
	dumpPath := filepath.Join(os.TempDir(), fmt.Sprintf("dbproc-mvcc-soak-flight-%d.jsonl", os.Getpid()))
	// Detectors fire at test scale, so a green run's auto-dumps are
	// rendered and discarded; only a stall switches the dump to the file,
	// before recording the watchdog event that triggers it.
	rec.SetAutoDumpWriter(io.Discard)
	defer dbtest.Watchdog(t, 4*time.Minute, func() {
		rec.SetAutoDumpFile(dumpPath)
		rec.Record(telemetry.Event{
			Kind:    telemetry.EvWatchdog,
			Session: -1,
			Seq:     -1,
			Detail:  "mvcc snapshot soak stalled; flight dump at " + dumpPath,
		})
	})()
	strategies := allStrategies
	if testing.Short() {
		strategies = []costmodel.Strategy{costmodel.CacheInvalidate, costmodel.UpdateCacheRVM}
	}
	for _, strat := range strategies {
		t.Run(fmt.Sprintf("%v", strat), func(t *testing.T) {
			cfg := scenarioConfig("storm-adversarial", strat, costmodel.Model2, 4242, 24, 40)
			e := New(cfg, Options{
				Clients: 8, ThinkMeanMs: 0.2,
				RecordHistory: true, Recorder: rec,
			})
			res := e.Run(context.Background())
			if res.Ops == 0 {
				t.Fatal("soak ran no operations")
			}
			txns := TxnsFromHistory(res.History, e.World().ProcIDs(), e.World().ProcRelations)
			if rep := CheckSnapshotIsolation(txns); !rep.Serializable {
				t.Fatalf("SI oracle flagged the soak history: %s", rep.Window)
			}
			w := e.World()
			for _, id := range w.ProcIDs() {
				if !bytes.Equal(Digest(w.Access(id)), Digest(w.RecomputeOracle(id))) {
					t.Errorf("procedure %d inconsistent after soak", id)
				}
			}
		})
	}
	if _, err := os.Stat(dumpPath); !os.IsNotExist(err) {
		t.Errorf("a soak that did not stall left a flight dump at %s (stat: %v)", dumpPath, err)
	}
}

// TestMVCCAccessWaitShareCollapse is the prize invariant: under the
// storm-adversarial scenario at 8 clients, the access (query) wait share
// collapses because a query acquires no lock at all — there is nothing
// for it to wait on. The test asserts that cause, which is exact, rather
// than a wall-clock share of a ~10 ms run: every lock (the update
// footprint and the GC lock) is acquired once per update and never by a
// query. (The pure-2PL read path it replaced, where every query also took
// rel:r1 shared, is gone; docs/MVCC.md keeps the before/after figures.)
func TestMVCCAccessWaitShareCollapse(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	cfg := scenarioConfig("storm-adversarial", costmodel.CacheInvalidate, costmodel.Model2, 1123, 24, 40)
	e := New(cfg, Options{Clients: 8})
	mvcc := e.Run(context.Background())
	if mvcc.Queries == 0 || mvcc.Updates == 0 {
		t.Fatalf("run has %d queries, %d updates", mvcc.Queries, mvcc.Updates)
	}
	if len(mvcc.Contention) == 0 {
		t.Fatal("no lock profile recorded")
	}
	for _, lc := range mvcc.Contention {
		if lc.Acquires != int64(mvcc.Updates) {
			t.Errorf("lock %s acquired %d times by %d updates: a query took a lock",
				lc.Name, lc.Acquires, mvcc.Updates)
		}
	}
}
