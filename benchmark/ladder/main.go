// Command ladder times the public functions of each layer in process:
// one row per rung, ns/op and allocs/op as the minimum of five batches,
// with the spread between the batches. The benchmark harness runs it
// after the traced window and merges its rows; it is a program of its
// own so that a changed signature in a lower layer breaks these rows and
// nothing else.
//
//	ladder -workload hot-read -seed 1 -seconds 7
//
// prints a JSON array of rows on standard output. The engine rows use
// the workload's own configuration and ops (for quel-sql an in-process
// quel session over the seed's database); the other rows use fixed
// configurations named in their comments, with keys drawn from the seed.
package main

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dbproc"
	"dbproc/benchmark/spec"
	"dbproc/client"
	"dbproc/internal/engine"
	"dbproc/internal/ilock"
	"dbproc/internal/metric"
	"dbproc/internal/proc"
	"dbproc/internal/quel"
	"dbproc/internal/relation"
	"dbproc/internal/server"
	"dbproc/internal/sim"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
	"dbproc/internal/wire"
	"dbproc/internal/workload"
)

const batches = 5

// row is one rung's measurement.
type row struct {
	Name    string  `json:"name"`
	Ns      float64 `json:"ns"`
	Allocs  float64 `json:"allocs"`
	Spread  float64 `json:"spread"`
	Batches int     `json:"batches"`
	Iters   int     `json:"iters"`
}

// ladder collects rows; batch is how long one batch should run.
type ladder struct {
	batch time.Duration
	rows  []row
}

// measure times fn and adds the row.
func (l *ladder) measure(name string, fn func(i int)) {
	r := l.time(fn)
	r.Name = name
	l.rows = append(l.rows, r)
}

// time runs fn, which must perform iteration i of its work, in batches
// of a calibrated iteration count. i keeps rising across batches so a
// rung that consumes inputs never sees one twice in a row.
func (l *ladder) time(fn func(i int)) row {
	next := 0
	run := func(n int) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(next + i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		next += n
		return elapsed, after.Mallocs - before.Mallocs
	}
	// Calibrate, which also warms the rung: grow n until a probe fills
	// half a batch. Growth per step is capped so that a cold first call
	// does not set the scale.
	n := 1
	for {
		elapsed, _ := run(n)
		if elapsed >= l.batch/2 || n >= 1<<24 {
			break
		}
		grow := float64(l.batch) / float64(elapsed+1)
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n)*grow) + 1
	}
	r := row{Batches: batches, Iters: n}
	var worst float64
	for b := 0; b < batches; b++ {
		elapsed, mallocs := run(n)
		ns := float64(elapsed.Nanoseconds()) / float64(n)
		allocs := float64(mallocs) / float64(n)
		if b == 0 || ns < r.Ns {
			r.Ns = ns
		}
		if b == 0 || allocs < r.Allocs {
			r.Allocs = allocs
		}
		if ns > worst {
			worst = ns
		}
	}
	if r.Ns > 0 {
		r.Spread = (worst - r.Ns) / r.Ns
	}
	return r
}

// derived adds a row computed from two measured ones (a − b, floored at
// zero): maintenance cost is an update under a caching strategy minus
// the same update under Always Recompute.
func (l *ladder) derived(name string, a, b row) {
	d := row{Name: name, Ns: a.Ns - b.Ns, Allocs: a.Allocs - b.Allocs, Spread: a.Spread, Batches: batches, Iters: a.Iters}
	if d.Ns < 0 {
		d.Ns = 0
	}
	if d.Allocs < 0 {
		d.Allocs = 0
	}
	l.rows = append(l.rows, d)
}

func main() {
	name := flag.String("workload", "hot-read", "workload whose configuration the engine rows use")
	seed := flag.Int64("seed", 1, "seed for worlds and keys")
	seconds := flag.Float64("seconds", 7, "time budget for the whole ladder")
	flag.Parse()
	wl, ok := spec.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "ladder: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// 25 measured rungs of a calibration and five batches each, and
	// about a second of world building.
	budget := *seconds - 1
	if budget < 0.25 {
		budget = 0.25
	}
	l := &ladder{batch: time.Duration(budget / (25 * (batches + 1)) * float64(time.Second))}
	rng := rand.New(rand.NewSource(*seed))

	wireRows(l)
	if err := clientRows(l); err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %v\n", err)
		os.Exit(1)
	}
	quelRows(l)
	if err := engineRows(l, wl, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %v\n", err)
		os.Exit(1)
	}
	storageRows(l, rng)
	procRows(l, *seed)
	indexRows(l, *seed, rng)

	if err := json.NewEncoder(os.Stdout).Encode(l.rows); err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %v\n", err)
		os.Exit(1)
	}
}

// wireRows: frame encode and decode of the two response shapes the
// workloads move — a world step and a 40-row result.
func wireRows(l *ladder) {
	step := &wire.WorldStep{Seq: 123456, Tuples: 100, CostMs: 84.25, WallNs: 11_250}
	res := &wire.Result{Message: "40 tuple(s) (from cache)", Columns: []string{"tid", "skey", "jkey"}, CostMs: 30}
	for i := int64(0); i < 40; i++ {
		res.Rows = append(res.Rows, []int64{10_000 + i, 10_000 + i, 977 + i})
	}
	for _, c := range []struct {
		name string
		typ  byte
		msg  any
	}{{"wire.step", wire.TWorldStep, step}, {"wire.result40", wire.TResult, res}} {
		l.measure(c.name+"_encode", func(int) {
			if err := wire.WriteFrame(io.Discard, c.typ, c.msg); err != nil {
				panic(err)
			}
		})
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, c.typ, c.msg); err != nil {
			panic(err)
		}
		l.measure(c.name+"_decode", func(int) {
			typ, payload, err := wire.ReadFrame(bytes.NewReader(frame.Bytes()))
			if err == nil {
				_, err = wire.Decode(typ, payload)
			}
			if err != nil {
				panic(err)
			}
		})
	}
}

// clientRows: an empty round trip over loopback against an in-process
// server, through the protocol connection and through database/sql.
func clientRows(l *ladder) error {
	srv := server.New(server.Options{})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx := context.Background()
	defer srv.Shutdown(ctx)
	cn, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cn.Close()
	l.measure("client.ping_rtt", func(int) {
		if err := cn.Ping(ctx); err != nil {
			panic(err)
		}
	})
	db, err := sql.Open("dbproc", addr)
	if err != nil {
		return err
	}
	defer db.Close()
	l.measure("client.sql_ping", func(int) {
		if err := db.PingContext(ctx); err != nil {
			panic(err)
		}
	})
	return nil
}

// quelRows: parsing quel-sql's two statement shapes.
func quelRows(l *ladder) {
	for _, c := range []struct{ name, text string }{
		{"quel.parse_execute", "execute p17"},
		{"quel.parse_replace", "replace r1 (jkey = 1234) where r1.skey = 5678"},
	} {
		l.measure(c.name, func(int) {
			if _, err := quel.Parse(c.text); err != nil {
				panic(err)
			}
		})
	}
}

// ladderOps is the length of the op stream a ladder world deals; rungs
// cycle through it.
const ladderOps = 20_000

// openEngine builds a 1-session engine the way the server does (history
// on) over wl's configuration, with the stream cut to ladderOps at the
// workload's update share, and splits the stream by kind.
func openEngine(wl spec.Workload, seed int64) (sess *engine.Session, eng *engine.Engine, queries, updates []workload.Op) {
	p := wl.Params()
	share := p.K / (p.K + p.Q)
	p.K, p.Q = float64(int(share*ladderOps)), float64(int((1-share)*ladderOps))
	eng = engine.New(wl.SimConfig(p, seed), engine.Options{Clients: 1, RecordHistory: true})
	for _, op := range eng.World().WorkloadOps() {
		if op.Kind == workload.Update {
			updates = append(updates, op)
		} else {
			queries = append(queries, op)
		}
	}
	return eng.OpenSession(0), eng, queries, updates
}

// worldOf is a paper-default world workload under the given strategy.
func worldOf(strategy string) spec.Workload {
	return spec.Workload{Strategy: strategy, Model: "1", K: 100, Q: 100}
}

// engineRows: Session.Exec on the workload's own ops — the wire-free
// floor of its access and update latency — and an uncontended lock-table
// acquire of an update's footprint. For quel-sql the floor is the
// in-process quel session running the seed's statements.
func engineRows(l *ladder, wl spec.Workload, seed int64) error {
	world := wl
	if wl.IsQuel() {
		if err := quelEngineRows(l, seed); err != nil {
			return err
		}
		world = worldOf("uc-rvm") // only its update footprint is used
	}
	sess, eng, queries, updates := openEngine(world, seed)
	if !wl.IsQuel() {
		l.measure("engine.exec_access", func(i int) { sess.Exec(queries[i%len(queries)]) })
		l.measure("engine.exec_update", func(i int) { sess.Exec(updates[i%len(updates)]) })
	}
	footprint := eng.OpFootprint(updates[0])
	locks := engine.NewLockTable()
	l.measure("engine.lock_acquire", func(int) { locks.Acquire(footprint).Release() })
	return nil
}

func quelEngineRows(l *ladder, seed int64) error {
	qdb := spec.BuildQuelDB(seed)
	db := quel.Open(0, 0, metric.DefaultCosts())
	for _, script := range [][]string{qdb.Creates, qdb.Appends, qdb.Defines} {
		for _, text := range script {
			if _, err := db.Run(text); err != nil {
				return fmt.Errorf("%s: %w", text, err)
			}
		}
	}
	var executes, replaces []string
	stream := spec.NewQuelStream(qdb, seed, 0)
	for len(executes) < 4096 || len(replaces) < 4096 {
		if st := stream.Next(); st.Update {
			replaces = append(replaces, st.Text)
		} else {
			executes = append(executes, st.Text)
		}
	}
	run := func(texts []string) func(int) {
		return func(i int) {
			if _, err := db.Run(texts[i%len(texts)]); err != nil {
				panic(err)
			}
		}
	}
	l.measure("engine.exec_access", run(executes))
	l.measure("engine.exec_update", run(replaces))
	return nil
}

// storageRows: the MVCC calls every op makes — a query's snapshot
// acquire and release, an update's epoch open and publish — and a warm
// page read, on a disk of the paper's page size.
func storageRows(l *ladder, rng *rand.Rand) {
	const pages = 2_500 // R1's size at the paper's defaults
	disk := storage.NewDisk(4_000)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		ids[i] = disk.Alloc()
	}
	disk.EnableMVCC()
	l.measure("storage.snapshot", func(int) {
		_, release := disk.AcquireSnapshot()
		release()
	})
	stamp := uint64(0)
	l.measure("storage.publish", func(int) {
		disk.BeginEpoch()
		stamp++
		disk.Publish(stamp)
	})
	pg := storage.NewPager(disk, metric.NewMeter(metric.DefaultCosts()))
	pg.BeginOp()
	hot := make([]storage.PageID, 64)
	for i := range hot {
		hot[i] = ids[rng.Intn(pages)]
		pg.Read(hot[i])
	}
	l.measure("storage.page_read", func(i int) { pg.Read(hot[i%len(hot)]) })
}

// procRows: a strategy access that finds its entry valid (uc-avm, model
// 1, paper defaults) against one that recomputes a three-way join
// (recompute-scan's configuration), and what maintenance adds to an
// update: Session.Exec of an update under uc-avm and under uc-rvm, minus
// the same under Always Recompute.
func procRows(l *ladder, seed int64) {
	access := func(name string, wl spec.Workload, onlyP2 bool) {
		w := sim.Build(wl.SimConfig(wl.Params(), seed))
		var ids []int
		for _, id := range w.ProcIDs() {
			if !onlyP2 || len(w.ProcRelations(id)) > 1 {
				ids = append(ids, id)
			}
		}
		pg := w.SessionPager(0)
		strat := w.Strategy()
		l.measure(name, func(i int) {
			pg.BeginOp()
			strat.Access(pg, ids[i%len(ids)])
		})
	}
	access("proc.access_hit", worldOf("uc-avm"), false)
	scan, _ := spec.ByName("recompute-scan")
	access("proc.access_recompute", scan, true)

	update := func(strategy string) row {
		sess, _, _, updates := openEngine(worldOf(strategy), seed)
		return l.time(func(i int) { sess.Exec(updates[i%len(updates)]) })
	}
	base, avm, rvm := update("recompute"), update("uc-avm"), update("uc-rvm")
	l.derived("proc.maintain_avm", avm, base)
	l.derived("proc.maintain_rvm", rvm, base)
}

// indexRows: point lookups in structures built like the world's — R1's
// clustered B-tree and R2's hash table at the paper's sizes — and an
// i-lock conflict probe against the intervals a Cache and Invalidate
// world of the paper's 200 procedures holds.
func indexRows(l *ladder, seed int64, rng *rand.Rand) {
	p := dbproc.DefaultParams()
	n, n2 := int(p.N), int(p.FR2*p.N)
	pg := storage.NewPager(storage.NewDisk(int(p.B)), metric.NewMeter(metric.DefaultCosts()))
	pg.SetCharging(false)

	s1 := tuple.NewSchema("r1", int(p.S), tuple.Field{Name: "tid"}, tuple.Field{Name: "skey"}, tuple.Field{Name: "a"})
	tuples := make([][]byte, n)
	for i := range tuples {
		tuples[i] = s1.New()
		s1.SetByName(tuples[i], "tid", int64(i))
		s1.SetByName(tuples[i], "skey", int64(i))
	}
	tree := relation.BulkLoadBTree(pg, s1, "skey", "tid", int(p.D), tuples).Tree()

	s2 := tuple.NewSchema("r2", int(p.S), tuple.Field{Name: "tid"}, tuple.Field{Name: "b"})
	perPage := int(p.B / p.S)
	r2 := relation.NewHash(pg.Disk(), s2, "b", (n2+perPage-1)/perPage)
	for j := 0; j < n2; j++ {
		t := s2.New()
		s2.SetByName(t, "tid", int64(j))
		s2.SetByName(t, "b", int64(j))
		r2.Insert(pg, t)
	}
	hash := r2.Hash()

	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(rng.Intn(n))
	}
	l.measure("btree.get", func(i int) {
		pg.BeginOp()
		k := keys[i%len(keys)]
		if _, ok := tree.Get(pg, tuple.ClusterKey(k, k)); !ok {
			panic("btree.get: loaded key not found")
		}
	})
	l.measure("hashidx.lookup", func(i int) {
		pg.BeginOp()
		if _, ok := hash.Lookup(pg, uint64(keys[i%len(keys)]%int64(n2))); !ok {
			panic("hashidx.lookup: loaded key not found")
		}
	})

	ci := worldOf("ci")
	w := sim.Build(ci.SimConfig(ci.Params(), seed))
	locks := w.Strategy().(*proc.CacheInvalidate).Locks()
	conflicts := 0
	l.measure("ilock.conflicts", func(i int) {
		locks.Conflicts("r1", keys[i%len(keys)], func(ilock.Owner) { conflicts++ })
	})
}
