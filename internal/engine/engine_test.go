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
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
	"dbproc/internal/workload"
)

// testConfig is a scaled-down parameter point: populations small enough
// that 8-session runs and oracle searches finish in test time, but with
// both procedure classes, locality skew, and a nonzero R2-update mix so
// every maintenance path executes.
func testConfig(strat costmodel.Strategy, model costmodel.Model, seed int64, k, q int) sim.Config {
	p := costmodel.Default()
	p.N = 600
	p.F = 8.0 / p.N
	p.F2 = 0.02
	p.N1 = 3
	p.N2 = 3
	p.L = 2
	p.SF = 0.5
	p.Z = 0.3
	p.K = float64(k)
	p.Q = float64(q)
	return sim.Config{
		Params:           p,
		Model:            model,
		Strategy:         strat,
		Seed:             seed,
		R2UpdateFraction: 0.3,
	}
}

var allStrategies = []costmodel.Strategy{
	costmodel.AlwaysRecompute,
	costmodel.CacheInvalidate,
	costmodel.UpdateCacheAVM,
	costmodel.UpdateCacheRVM,
}

// TestClientsOneMatchesSequential is the acceptance gate for the
// sequential path: one client through the engine must reproduce the
// sequential simulator byte for byte — same operation stream, same
// per-query results, same cost counters.
func TestClientsOneMatchesSequential(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	for _, strat := range allStrategies {
		for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			t.Run(fmt.Sprintf("%v/%v", strat, model), func(t *testing.T) {
				cfg := testConfig(strat, model, 41, 15, 25)

				seq := sim.Run(cfg)
				e := New(cfg, Options{Clients: 1, RecordHistory: true})
				got := e.Run(context.Background())

				if got.Queries != seq.Queries || got.Updates != seq.Updates {
					t.Fatalf("op mix %d/%d, sequential %d/%d",
						got.Queries, got.Updates, seq.Queries, seq.Updates)
				}
				if got.TuplesReturned != seq.TuplesReturned {
					t.Fatalf("tuples %d, sequential %d", got.TuplesReturned, seq.TuplesReturned)
				}
				if got.Counters != seq.Counters {
					t.Fatalf("counters diverge:\n engine     %v\n sequential %v",
						got.Counters, seq.Counters)
				}
				if got.SimTotalMs != seq.TotalMs {
					t.Fatalf("simulated cost %v, sequential %v", got.SimTotalMs, seq.TotalMs)
				}

				// Per-operation byte identity: replay the same config
				// sequentially and compare each query's result digest.
				w := sim.Build(cfg)
				ops := w.WorkloadOps()
				if len(ops) != len(got.History) {
					t.Fatalf("history has %d ops, workload %d", len(got.History), len(ops))
				}
				for i, op := range ops {
					he := got.History[i]
					if he.Op != op {
						t.Fatalf("op %d is %+v, workload %+v", i, he.Op, op)
					}
					r := w.ExecOp(op)
					if op == he.Op && he.Result != nil {
						if !bytes.Equal(he.Result, Digest(r.Tuples)) {
							t.Fatalf("op %d result digest diverges from sequential execution", i)
						}
					}
				}
			})
		}
	}
}

// TestConcurrentFinalStateConsistent runs multi-session workloads for
// every caching strategy and checks that every cached procedure value
// agrees with a from-scratch recompute of its definition over the final
// base tables.
func TestConcurrentFinalStateConsistent(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	for _, strat := range allStrategies[1:] { // caching strategies only
		for _, clients := range []int{2, 8} {
			t.Run(fmt.Sprintf("%v/clients=%d", strat, clients), func(t *testing.T) {
				cfg := testConfig(strat, costmodel.Model2, 97, 12, 20)
				e := New(cfg, Options{Clients: clients})
				e.Run(context.Background())
				w := e.World()
				for _, id := range w.ProcIDs() {
					got := Digest(w.Access(id))
					want := Digest(w.RecomputeOracle(id))
					if !bytes.Equal(got, want) {
						t.Errorf("procedure %d: cached value diverges from recompute", id)
					}
				}
			})
		}
	}
}

// oracleStrategies are the three maintenance paths the serializability
// oracle must cover per the acceptance criteria.
var oracleStrategies = []costmodel.Strategy{
	costmodel.CacheInvalidate,
	costmodel.UpdateCacheAVM,
	costmodel.UpdateCacheRVM,
}

// TestOracleSerializable runs concurrent histories and checks each is
// equivalent to some serial order. Workload size shrinks as the session
// count grows: the oracle's state space is the product of per-session
// positions, and 8 sessions of 2 ops each stay within budget while still
// interleaving every maintenance path.
func TestOracleSerializable(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	cases := []struct{ clients, k, q int }{
		{1, 12, 20},
		{2, 10, 14},
		{8, 8, 8},
	}
	for _, strat := range oracleStrategies {
		for _, model := range []costmodel.Model{costmodel.Model1, costmodel.Model2} {
			for _, c := range cases {
				if testing.Short() && c.clients == 8 && model == costmodel.Model2 {
					continue
				}
				name := fmt.Sprintf("%v/%v/clients=%d", strat, model, c.clients)
				t.Run(name, func(t *testing.T) {
					cfg := testConfig(strat, model, 1000+int64(c.clients), c.k, c.q)
					e := New(cfg, Options{Clients: c.clients, RecordHistory: true})
					res := e.Run(context.Background())
					if len(res.History) != c.k+c.q {
						t.Fatalf("history holds %d ops, want %d", len(res.History), c.k+c.q)
					}
					rep := CheckSerializable(cfg, res.History, 0)
					if !rep.Serializable {
						t.Fatalf("history not serializable (exhausted=%v, %d states):\n%s",
							rep.Exhausted, rep.StatesExplored, rep.Window)
					}
					if len(rep.Order) != len(res.History) {
						t.Fatalf("witness order has %d ops, want %d", len(rep.Order), len(res.History))
					}
				})
			}
		}
	}
}

// TestOracleRejectsCorruptedHistory corrupts one query's recorded result
// and checks the oracle proves non-serializability and reports the
// window.
func TestOracleRejectsCorruptedHistory(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 7, 6, 10)
	e := New(cfg, Options{Clients: 2, RecordHistory: true})
	res := e.Run(context.Background())

	corrupted := -1
	for i := range res.History {
		if res.History[i].Result != nil {
			res.History[i].Result = append([]byte(nil), res.History[i].Result...)
			res.History[i].Result[0] ^= 0xFF
			corrupted = i
			break
		}
	}
	if corrupted < 0 {
		t.Fatal("workload produced no queries")
	}
	rep := CheckSerializable(cfg, res.History, 0)
	if rep.Serializable {
		t.Fatal("oracle accepted a corrupted history")
	}
	if rep.Exhausted {
		t.Fatalf("oracle ran out of budget instead of proving non-serializability (%d states)",
			rep.StatesExplored)
	}
	if rep.Window == "" {
		t.Fatal("non-serializable verdict carries no window report")
	}
	t.Logf("window report:\n%s", rep.Window)
}

// TestRaceStress is the soak: 8 sessions per caching strategy and model
// with think time enabled, meant to run under -race (scripts/verify.sh
// tier 3 does). Short mode trims the matrix.
//
// The soak runs with the flight recorder attached and a watchdog hook
// that records a watchdog.fire event on a stall: because watchdog.fire is
// an auto-dump trigger, a deadlocked soak leaves a flight dump on disk
// (render with procstat) before the goroutine dump panics.
func TestRaceStress(t *testing.T) {
	rec := telemetry.NewRecorder(1 << 14)
	dumpPath := filepath.Join(os.TempDir(), fmt.Sprintf("dbproc-race-stress-flight-%d.jsonl", os.Getpid()))
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
			Detail:  "race-stress soak stalled; flight dump at " + dumpPath,
		})
	})()
	models := []costmodel.Model{costmodel.Model1, costmodel.Model2}
	if testing.Short() {
		models = models[:1]
	}
	for _, strat := range oracleStrategies {
		for _, model := range models {
			t.Run(fmt.Sprintf("%v/%v", strat, model), func(t *testing.T) {
				cfg := testConfig(strat, model, 31337, 24, 40)
				e := New(cfg, Options{Clients: 8, ThinkMeanMs: 0.2, Recorder: rec})
				res := e.Run(context.Background())
				if res.Ops != 64 {
					t.Fatalf("ran %d ops, want 64", res.Ops)
				}
				w := e.World()
				for _, id := range w.ProcIDs() {
					if !bytes.Equal(Digest(w.Access(id)), Digest(w.RecomputeOracle(id))) {
						t.Errorf("procedure %d inconsistent after soak", id)
					}
				}
			})
		}
	}
	if _, err := os.Stat(dumpPath); !os.IsNotExist(err) {
		t.Errorf("a soak that did not stall left a flight dump at %s (stat: %v)", dumpPath, err)
	}
}

// TestRunHonorsContext checks cancellation stops sessions between
// operations rather than deadlocking.
func TestRunHonorsContext(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 3, 20, 30)
	e := New(cfg, Options{Clients: 4, ThinkMeanMs: 50})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Run(ctx)
	if res.Ops >= 50 {
		t.Fatalf("cancelled run still executed all %d ops", res.Ops)
	}
}

// TestSessionAttribution checks per-session counters sum to the run
// total and sessions each did work.
func TestSessionAttribution(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	cfg := testConfig(costmodel.UpdateCacheAVM, costmodel.Model2, 11, 12, 20)
	e := New(cfg, Options{Clients: 4})
	res := e.Run(context.Background())
	var sum int
	var counters = res.Counters
	for _, st := range res.Sessions {
		sum += st.Ops
		counters = counters.Sub(st.Counters)
	}
	if sum != res.Ops {
		t.Fatalf("session ops sum %d, run total %d", sum, res.Ops)
	}
	var zero = res.Counters.Sub(res.Counters)
	if counters != zero {
		t.Fatalf("per-session counters do not sum to the run total (residue %v)", counters)
	}
	for _, st := range res.Sessions {
		if st.Ops == 0 {
			t.Errorf("session %d did no work", st.Session)
		}
	}
	if wl := res.WallLatency; wl.Count != int64(res.Ops) || wl.P50 <= 0 || wl.P95 < wl.P50 {
		t.Fatalf("latency summary inconsistent: %+v for %d ops", wl, res.Ops)
	}
}

// TestResultDigestedOutsideCommit: the history digest reads a whole
// query result, and commitMu serializes every session's commit, so
// a large result digested under it would extend all of them. The hook
// observes the mutex from inside the digest call: with one session, it is
// held there only if that session's own commit step took it first.
func TestResultDigestedOutsideCommit(t *testing.T) {
	cfg := testConfig(costmodel.AlwaysRecompute, costmodel.Model1, 5, 4, 12)
	cfg.Params.F = 0.5 // 300-tuple results
	e := New(cfg, Options{Clients: 1, RecordHistory: true})
	digested, underCommit := 0, 0
	e.digest = func(tuples [][]byte) []byte {
		digested++
		if e.commitMu.TryLock() {
			e.commitMu.Unlock()
		} else {
			underCommit++
		}
		return Digest(tuples)
	}
	res := e.Run(context.Background())
	if digested != res.Queries || digested == 0 {
		t.Fatalf("%d results digested for %d queries", digested, res.Queries)
	}
	if underCommit != 0 {
		t.Errorf("%d of %d results were digested with the commit mutex held", underCommit, digested)
	}
	largest := 0
	for _, he := range res.History {
		if he.Op.Kind == workload.Query && len(he.Result) == 0 {
			t.Fatalf("query seq %d recorded no digest", he.Seq)
		}
		largest = max(largest, he.Tuples)
	}
	if largest < 200 {
		t.Fatalf("the largest result has %d tuples: the run digests nothing large", largest)
	}
}

// TestSessionsStepTheirDealtOps: the engine deals one stream. Session i
// of n commits ops i, i+n, i+2n, … of the world's stream, in that order,
// then reports done (and keeps reporting it); each session's commits
// number exactly its Deal count.
func TestSessionsStepTheirDealtOps(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	const n = 3
	cfg := testConfig(costmodel.UpdateCacheRVM, costmodel.Model1, 7, 10, 21)
	stream := sim.Build(cfg).Stream()
	e := New(cfg, Options{Clients: n, RecordHistory: true})
	deal := e.Deal()
	sessions := make([]*Session, n)
	for i := range sessions {
		sessions[i] = e.OpenSession(i)
	}
	// Step the sessions in a scrambled order so a session's share cannot
	// depend on when it runs.
	committed := make([]int, n)
	for live := n; live > 0; {
		live = 0
		for _, i := range []int{2, 0, 1} {
			out, done := sessions[i].Next()
			if done {
				continue
			}
			live++
			if want := stream.At(i + committed[i]*n); out.Kind != want.Kind {
				t.Fatalf("session %d step %d ran a %v, its dealt op is a %v", i, committed[i], out.Kind, want.Kind)
			}
			committed[i]++
		}
	}
	for i, s := range sessions {
		if _, done := s.Next(); !done {
			t.Fatalf("session %d stepped past its share", i)
		}
		if committed[i] != deal[i] {
			t.Errorf("session %d committed %d ops, Deal gave it %d", i, committed[i], deal[i])
		}
	}
	res := e.Finish(0)
	if res.Ops != stream.Len() {
		t.Fatalf("sessions committed %d ops, the stream has %d", res.Ops, stream.Len())
	}
	next := make([]int, n)
	for _, he := range res.History {
		i := he.Session
		if want := stream.At(i + next[i]*n); he.Op != want {
			t.Fatalf("session %d committed %+v as its op %d, want %+v", i, he.Op, next[i], want)
		}
		next[i]++
	}
}
