package sim

import (
	"fmt"
	"math"
	"sort"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
	"dbproc/internal/proc"
	"dbproc/internal/query"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
	"dbproc/internal/workload"
)

// HasColdFraction reports whether ColdFraction carries a measurement;
// only Cache and Invalidate keeps the statistic, so it is NaN — and this
// returns false — for every other strategy.
func (r Result) HasColdFraction() bool { return !math.IsNaN(r.ColdFraction) }

// Run builds the world for cfg and executes the workload, returning the
// measured and predicted cost per query.
func Run(cfg Config) Result {
	return Build(cfg).Run()
}

// Run executes the configured workload once. The world is consumed: run a
// fresh Build for another measurement.
func (w *World) Run() Result {
	ops := w.Stream()

	res := Result{Config: w.cfg}
	for i := 0; i < ops.Len(); i++ {
		op := ops.At(i)
		r := w.ExecOp(op)
		switch op.Kind {
		case workload.Update:
			res.Updates++
		case workload.Query:
			res.TuplesReturned += len(r.Tuples)
			res.Queries++
		}
	}
	res.Counters = w.meter.Snapshot()
	res.TotalMs = w.meter.Milliseconds()
	res.ColdFraction = w.ColdFraction()
	if res.Queries > 0 {
		res.MsPerQuery = res.TotalMs / float64(res.Queries)
	}
	res.PredictedMs = w.cfg.PredictedMs()
	return res
}

// ColdFraction is the measured fraction of Cache-and-Invalidate accesses
// so far that found the cache invalid; NaN for other strategies, under
// Adaptive, and before the first access.
func (w *World) ColdFraction() float64 {
	if ci, ok := w.strat.(*proc.CacheInvalidate); ok && !w.cfg.Adaptive {
		if acc, cold := ci.AccessStats(); acc > 0 {
			return float64(cold) / float64(acc)
		}
	}
	return math.NaN()
}

// PredictedMs is the analytic model's cost per query for the
// configuration: the strategy's TOT formula, or under Adaptive the
// cheaper of Cache and Invalidate and Always Recompute.
func (c Config) PredictedMs() float64 {
	if c.Adaptive {
		return math.Min(costmodel.CacheInvalidateCost(c.Model, c.Params), costmodel.RecomputeCost(c.Model, c.Params))
	}
	return costmodel.Cost(c.Model, c.Strategy, c.Params)
}

// Stream draws the world's full operation stream: k update transactions
// interleaved at random with q skewed procedure accesses, consuming the
// workload generator exactly as the sequential Run loop always has. With
// a scenario configured, the stream instead comes from the scenario
// schedule's phased generation under the same seed derivation, so
// (scenario, seed) fully determines the stream. Callers (Run, the
// concurrent engine, a served world) deal its ops through ExecOp.
func (w *World) Stream() *workload.Stream {
	if w.sched != nil {
		return w.sched.Stream(w.cfg.Seed+2, w.mgr.IDs())
	}
	p := w.cfg.Params
	return w.gen.Sequence(int(p.K+0.5), int(p.Q+0.5))
}

// WorkloadOps is Stream expanded into one Op per operation, for callers
// that pick ops out of the stream by kind.
func (w *World) WorkloadOps() []workload.Op {
	s := w.Stream()
	ops := make([]workload.Op, s.Len())
	for i := range ops {
		ops[i] = s.At(i)
	}
	return ops
}

// OpResult reports one executed workload operation.
type OpResult struct {
	Op workload.Op
	// Update records the transaction's random draws (update ops only), so
	// the op can be replayed — and undone — on another world with the same
	// base state.
	Update UpdateRecord
	// Tuples is the query result (query ops only).
	Tuples [][]byte
}

// ExecOp executes one workload operation on the world's own sequential
// pager, in the operation's scope: a query reads at a snapshot of the
// newest commit, an update runs in the update epoch and publishes at stamp
// op.Index+1 — the commit sequence + 1 a one-client engine draws for it.
// Run loops over it; see ExecOpOn for the concurrent form.
func (w *World) ExecOp(op workload.Op) (r OpResult) {
	w.scoped(op.Kind == workload.Update, uint64(op.Index)+1, func() { r = w.ExecOpOn(w.pager, op) })
	return r
}

// scoped runs fn as one operation on the world's pager: the update epoch,
// published at stamp and followed by version GC, when update is set, else
// a read at a snapshot. The scope closes even if fn panics.
func (w *World) scoped(update bool, stamp uint64, fn func()) {
	w.pager.OpenScope(update)
	defer func() {
		w.pager.CloseScope(stamp)
		if update {
			w.Disk().GCVersions()
		}
	}()
	fn()
}

// ExecOpOn executes the body of one workload operation on the given
// session pager, whose scope the caller has opened (ExecOp, the engine's
// Session.Exec): a fresh frame scope, the op's tracing span on the
// pager's tracer, the base-table change plus strategy maintenance for
// updates, the strategy access for queries. The concurrent engine calls it
// once per session op;
// update ops consume the shared workload generator and mutate base
// structures, which is safe because every update footprint is exclusive on
// r1 and serializes against all other updates.
func (w *World) ExecOpOn(pg *storage.Pager, op workload.Op) OpResult {
	pg.BeginOp()
	pg.SetOpToken(op.Index)
	t := pg.Tracer()
	switch op.Kind {
	case workload.Update:
		sp := t.Begin("op.update")
		rec := w.drawUpdate(op)
		delta, _ := w.applyUpdate(pg, rec)
		sp.Set("rel", delta.Rel.Schema().Name())
		sp.Set("tuples", len(delta.Inserted)+len(delta.Deleted))
		w.strat.OnUpdate(pg, delta)
		// Flush inside the span so deferred page writes are priced into
		// the operation that dirtied them.
		pg.Flush()
		t.End(sp)
		return OpResult{Op: op, Update: rec}
	case workload.Query:
		sp := t.Begin("op.query")
		sp.Set("proc", op.ProcID)
		out := w.strat.Access(pg, op.ProcID)
		// Nested procedure calls: the body accesses further procedures,
		// derived deterministically from the op itself. Inner results
		// feed the body (discarded here), so the op's observable result
		// — and every oracle digest — stays the outer access alone.
		if op.Nest > 0 {
			inner := workload.InnerProcs(op, w.mgr.IDs())
			sp.Set("nested", len(inner))
			for _, id := range inner {
				w.strat.Access(pg, id)
			}
		}
		sp.Set("tuples", len(out))
		pg.Flush()
		t.End(sp)
		return OpResult{Op: op, Tuples: out}
	}
	panic("sim: unknown op kind")
}

// UpdateRecord captures the random draws of one update transaction: the
// modified tuple ids and, parallel to them, the new attribute values —
// skey for an R1 transaction, the C_f2 filter attribute p2 for an R2 one.
// Replaying a record against a world whose base tables are in the same
// state reproduces the transaction exactly; the inverse record returned
// by the replay restores the prior state (the serializability checker's
// backtracking step).
type UpdateRecord struct {
	R2   bool
	Tids []int
	Vals []int64
}

// drawUpdate consumes the workload generator's randomness for one update
// transaction — relation choice, tuple picks, new values — in the exact
// order the sequential simulator always has, and returns the record. By
// default the transaction modifies R1 (re-drawing the clustering
// attribute); with probability R2UpdateFraction it modifies R2 instead.
// Scenario ops reshape the draw: op.L overrides the tuple count (bulk
// load) and op.Adversarial aims the footprint at the densest i-lock band
// instead of drawing uniformly. All draws still come from the shared
// generator, in a deterministic order, so 1-client runs stay replayable.
func (w *World) drawUpdate(op workload.Op) UpdateRecord {
	p := w.cfg.Params
	l := int(p.L + 0.5)
	if op.L > 0 {
		l = op.L
	}
	if n := int(p.N); l > n {
		l = n
	}
	if op.Adversarial {
		return w.drawAdversarial(l)
	}
	if f := w.cfg.R2UpdateFraction; f > 0 && w.gen.Float64() < f {
		n2 := len(w.p2)
		if l > n2 {
			l = n2
		}
		rec := UpdateRecord{R2: true, Tids: w.gen.PickDistinct(l, n2)}
		for range rec.Tids {
			rec.Vals = append(rec.Vals, int64(w.gen.Intn(p2Max)))
		}
		return rec
	}
	n := int(p.N)
	rec := UpdateRecord{Tids: w.gen.PickDistinct(l, n)}
	for range rec.Tids {
		rec.Vals = append(rec.Vals, int64(w.gen.Intn(n)))
	}
	return rec
}

// drawAdversarial draws an update aimed at the densest i-lock region:
// the l tuples are picked (as far as supply allows) from those whose
// current clustering value lies in the skey interval covered by the most
// procedure bands, and their new values land back inside that interval —
// so both the delete and the insert side of every tuple move hit the
// maximum number of interval locks. Always an R1 transaction: R2 bands
// are per-procedure and never stack.
func (w *World) drawAdversarial(l int) UpdateRecord {
	lo, hi := w.densestBand()
	n := int(w.cfg.Params.N)
	var cand []int
	for tid, v := range w.skey {
		if v >= lo && v <= hi {
			cand = append(cand, tid)
		}
	}
	var rec UpdateRecord
	if len(cand) >= l {
		for _, i := range w.gen.PickDistinct(l, len(cand)) {
			rec.Tids = append(rec.Tids, cand[i])
		}
	} else {
		// The band holds fewer than l tuples: take them all and fill
		// the remainder with uniform picks outside the candidate set.
		rec.Tids = append(rec.Tids, cand...)
		seen := make(map[int]bool, l)
		for _, tid := range cand {
			seen[tid] = true
		}
		for len(rec.Tids) < l {
			tid := w.gen.Intn(n)
			if seen[tid] {
				continue
			}
			seen[tid] = true
			rec.Tids = append(rec.Tids, tid)
		}
	}
	span := int(hi - lo + 1)
	for range rec.Tids {
		rec.Vals = append(rec.Vals, lo+int64(w.gen.Intn(span)))
	}
	return rec
}

// densestBand sweeps the procedure R1 bands and returns the first
// maximal-coverage skey interval — the range whose tuples sit under the
// most interval locks. Bands are fixed at build time, so the result is
// cached.
func (w *World) densestBand() (int64, int64) {
	if w.denseBandSet {
		return w.denseBand[0], w.denseBand[1]
	}
	type event struct {
		x int64
		d int
	}
	evs := make([]event, 0, 2*len(w.specs))
	for _, spec := range w.specs {
		evs = append(evs, event{spec.band[0], 1}, event{spec.band[1] + 1, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].x != evs[j].x {
			return evs[i].x < evs[j].x
		}
		return evs[i].d > evs[j].d // opens before closes at the same point
	})
	cur, best := 0, 0
	var lo, hi int64
	for i, e := range evs {
		cur += e.d
		if cur > best {
			best = cur
			lo = e.x
			hi = e.x
			if i+1 < len(evs) && evs[i+1].x-1 > lo {
				hi = evs[i+1].x - 1
			}
		}
	}
	w.denseBand = [2]int64{lo, hi}
	w.denseBandSet = true
	return lo, hi
}

// applyUpdate performs the recorded transaction on the base tables
// without charging I/O (the base-table update cost is common to every
// strategy and excluded by the model). It returns the delta for the
// strategy hooks and the inverse record.
func (w *World) applyUpdate(pg *storage.Pager, rec UpdateRecord) (proc.Delta, UpdateRecord) {
	prev := pg.SetCharging(false)
	undo := UpdateRecord{R2: rec.R2, Tids: rec.Tids, Vals: make([]int64, 0, len(rec.Tids))}
	var delta proc.Delta
	if rec.R2 {
		s2 := w.r2.Schema()
		delta.Rel = w.r2
		for i, tid := range rec.Tids {
			// R2's hash key b equals the tuple id by construction.
			old, ok := w.r2.Hash().Lookup(pg, uint64(tid))
			if !ok {
				panic("sim: R2 tuple lost")
			}
			undo.Vals = append(undo.Vals, w.p2[tid])
			newTup := append([]byte(nil), old...)
			s2.SetByName(newTup, "p2", rec.Vals[i])
			w.r2.Hash().Delete(pg, uint64(tid))
			w.r2.Insert(pg, newTup)
			w.p2[tid] = rec.Vals[i]
			delta.Deleted = append(delta.Deleted, old)
			delta.Inserted = append(delta.Inserted, newTup)
		}
	} else {
		delta.Rel = w.r1
		for i, tid := range rec.Tids {
			oldKey := tuple.ClusterKey(w.skey[tid], int64(tid))
			old, ok := w.r1.Tree().Get(pg, oldKey)
			if !ok {
				panic("sim: base tuple lost")
			}
			undo.Vals = append(undo.Vals, w.skey[tid])
			newTup := append([]byte(nil), old...)
			w.r1.Schema().SetByName(newTup, "skey", rec.Vals[i])
			w.r1.DeleteKeyed(pg, oldKey)
			w.r1.Insert(pg, newTup)
			w.skey[tid] = rec.Vals[i]
			delta.Deleted = append(delta.Deleted, old)
			delta.Inserted = append(delta.Inserted, newTup)
		}
	}
	pg.BeginOp() // flush the uncharged base-table writes
	pg.SetCharging(prev)
	return delta, undo
}

// ReplayUpdate re-executes a recorded update transaction — the base-table
// change and the strategy maintenance hook — as one update epoch, and
// returns the inverse record. Replaying the inverse restores the base
// tables only, not strategy-private cache state, so undo-based search (the
// serializability oracle) must run on a recompute-style world whose
// accesses carry no cached state.
func (w *World) ReplayUpdate(rec UpdateRecord) (undo UpdateRecord) {
	w.scoped(true, w.Disk().CommitStamp()+1, func() {
		w.pager.BeginOp()
		var delta proc.Delta
		delta, undo = w.applyUpdate(w.pager, rec)
		w.strat.OnUpdate(w.pager, delta)
	})
	return undo
}

// Access runs one procedure query outside the workload loop, as one read
// at a snapshot (used by examples and equivalence tests).
func (w *World) Access(id int) (out [][]byte) {
	w.scoped(false, 0, func() {
		w.pager.BeginOp()
		out = w.strat.Access(w.pager, id)
		w.pager.Flush()
	})
	return out
}

// RecomputeOracle evaluates procedure id's definition plan directly
// against the current base tables, uncharged and without touching any
// cache — the brute-force recomputer the differential and
// serializability oracles compare strategies against.
func (w *World) RecomputeOracle(id int) [][]byte {
	prevCharge := w.pager.SetCharging(false)
	prevMute := w.meter.SetMuted(true)
	w.pager.BeginOp()
	var out [][]byte
	w.mgr.MustGet(id).Plan.Execute(&query.Ctx{Meter: w.meter, Pager: w.pager}, func(tup []byte) bool {
		out = append(out, append([]byte(nil), tup...))
		return true
	})
	w.pager.BeginOp()
	w.meter.SetMuted(prevMute)
	w.pager.SetCharging(prevCharge)
	return out
}

// BaseStateHash fingerprints the mutable base-table state (every R1
// clustering value and R2 filter value), letting the serializability
// oracle memoize search states.
func (w *World) BaseStateHash() uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	for _, v := range w.skey {
		mix(v)
	}
	for _, v := range w.p2 {
		mix(v)
	}
	return h
}

// Update applies one update transaction outside the workload loop, as
// one update epoch.
func (w *World) Update() {
	w.scoped(true, w.Disk().CommitStamp()+1, func() {
		w.pager.BeginOp()
		rec := w.drawUpdate(workload.Op{Kind: workload.Update})
		d, _ := w.applyUpdate(w.pager, rec)
		w.strat.OnUpdate(w.pager, d)
	})
}

// Strategy exposes the built strategy.
func (w *World) Strategy() proc.Strategy { return w.strat }

// ProcIDs returns the defined procedure ids.
func (w *World) ProcIDs() []int { return w.mgr.IDs() }

// Config returns the configuration the world was built from.
func (w *World) Config() Config { return w.cfg }

// ProcRelations names the base relations procedure id's plan reads: r1
// for every procedure, plus r2 (and, in model 2, r3) for P2 procedures.
// The snapshot-isolation oracle lifts a query's read set from it.
func (w *World) ProcRelations(id int) []string {
	spec := w.specs[id] // ids are assigned densely in definition order
	if spec.id != id {
		panic(fmt.Sprintf("sim: spec table out of order at %d", id))
	}
	if !spec.isP2 {
		return []string{"r1"}
	}
	if w.cfg.Model == costmodel.Model2 {
		return []string{"r1", "r2", "r3"}
	}
	return []string{"r1", "r2"}
}

// Meter returns the world's cost meter.
func (w *World) Meter() *metric.Meter { return w.meter }

// CacheStore returns the strategy's cache store, or nil for strategies
// holding no cached state (Always Recompute). The concurrent engine
// attaches telemetry observers here.
func (w *World) CacheStore() *cache.Store {
	if s, ok := w.strat.(interface{ CacheStore() *cache.Store }); ok {
		return s.CacheStore()
	}
	return nil
}
