// Package avm implements statically-optimized algebraic view maintenance
// (the paper's non-shared Update Cache variant, after Blakeley, Larson and
// Tompa 1986). For a view V over relations A and B, a transaction that
// inserts the tuple set a into A and deletes d yields
//
//	V(A ∪ a − d, B) = V(A, B) ∪ V(a, B) − V(d, B)
//
// so only the small delta expressions V(a, B) and V(d, B) are evaluated,
// against pre-compiled delta plans; the stored copy of V is patched in
// place. A view registers one Source per updatable base relation; the
// symmetric identity handles updates to B with a B-side delta plan.
//
// Cost events, matching the model's section 4.3 terms:
//
//   - one C1 screen per (changed tuple value, view) pair identified by rule
//     indexing (C_screenP1 / C_screenP2);
//   - one C3 delta op per tuple entered into a view's A_net or D_net set
//     (C_overhead);
//   - page reads from evaluating the delta plans' joins (C_join);
//   - page reads+writes on the stored view's pages from applying the
//     deltas (C_refreshP1 / C_refreshP2).
package avm

import (
	"fmt"
	"slices"
	"sync"

	"dbproc/internal/cache"
	"dbproc/internal/ilock"
	"dbproc/internal/metric"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
)

// Source describes how updates to one base relation reach a view.
type Source struct {
	// Rel is the updatable base relation.
	Rel *relation.Relation
	// Attr names the attribute rule indexing routes on; Band is the
	// restriction band on it (the view's selection predicate over Rel, or
	// the full value range if the view does not restrict Rel).
	Attr string
	Band [2]int64
	// DeltaPlan compiles the V(delta, ...) evaluation: it receives the
	// delta tuples of Rel and returns the view tuples they produce,
	// emitting tuples of the view's FullPlan schema. For a plain selection
	// whose predicate equals the band this is the values themselves.
	DeltaPlan func(deltas *query.ValuesScan) query.Plan
}

// View describes one materialized result maintained by the engine.
type View struct {
	// ID names the view; it is also its cache entry id and i-lock owner.
	ID int
	// FullPlan computes the view from scratch (used for the initial fill).
	FullPlan query.Plan
	// Key returns the clustering key of a result tuple.
	Key func(tup []byte) uint64
	// Sources lists the base relations whose updates the view tracks, at
	// most one per relation.
	Sources []Source
}

// sourceFor returns the view's source for the named relation, or nil.
func (v *View) sourceFor(rel string) *Source {
	for i := range v.Sources {
		if v.Sources[i].Rel.Schema().Name() == rel {
			return &v.Sources[i]
		}
	}
	return nil
}

// Engine maintains a set of views differentially. Apply serializes
// itself: the scratch delta sets and the stored view files admit one
// transaction's maintenance at a time, so concurrent sessions' delta-set
// applications execute in some serial order. All metered work is charged
// to the applying session's pager and meter, passed per call.
type Engine struct {
	mu     sync.Mutex
	store  *cache.Store
	router *ilock.Manager
	views  map[int]*View
	order  []int
	// routes lists the distinct routing attributes registered per
	// relation, field index and lock namespace resolved, so Apply extracts
	// each changed tuple's routing values once and looks nothing up.
	routes map[string][]route

	// Scratch delta sets, reused across transactions: view id -> A_net and
	// D_net tuple sets for the current transaction.
	anet map[int][][]byte
	dnet map[int][][]byte
}

// NewEngine creates an empty engine storing view contents in store and
// using router for rule-indexed change screening.
func NewEngine(store *cache.Store, router *ilock.Manager) *Engine {
	return &Engine{
		store:  store,
		router: router,
		views:  make(map[int]*View),
		routes: make(map[string][]route),
		anet:   make(map[int][][]byte),
		dnet:   make(map[int][][]byte),
	}
}

// Name identifies the maintenance algorithm.
func (e *Engine) Name() string { return "AVM" }

// route is one routing attribute of a relation: its field index and its
// lock namespace, the relation's qualified with the attribute so that
// bands on different attributes of one relation do not mix.
type route struct {
	field int
	key   string
}

// Register adds a view. Its cache entry must already be defined.
func (e *Engine) Register(v *View) {
	if _, dup := e.views[v.ID]; dup {
		panic(fmt.Sprintf("avm: view %d already registered", v.ID))
	}
	if v.FullPlan == nil || v.Key == nil || len(v.Sources) == 0 {
		panic("avm: incomplete view definition")
	}
	seen := map[string]bool{}
	for _, src := range v.Sources {
		if src.Rel == nil || src.DeltaPlan == nil {
			panic("avm: incomplete view source")
		}
		rel := src.Rel.Schema().Name()
		if seen[rel] {
			panic(fmt.Sprintf("avm: view %d has two sources on %s", v.ID, rel))
		}
		seen[rel] = true
		field := src.Rel.Schema().FieldIndex(src.Attr)
		if field < 0 {
			panic(fmt.Sprintf("avm: view %d routes %s on unknown attribute %q", v.ID, rel, src.Attr))
		}
		r := route{field: field, key: rel + "\x00" + src.Attr}
		e.router.LockRange(r.key, src.Band[0], src.Band[1], ilock.Owner(v.ID))
		if !slices.Contains(e.routes[rel], r) {
			e.routes[rel] = append(e.routes[rel], r)
		}
	}
	e.views[v.ID] = v
	e.order = append(e.order, v.ID)
}

// NumViews returns the number of registered views.
func (e *Engine) NumViews() int { return len(e.views) }

// Prepare computes every view from scratch and marks its cache entry
// valid. Run it with charging disabled: it is setup, not workload.
func (e *Engine) Prepare(pg *storage.Pager) {
	ctx := &query.Ctx{Meter: pg.Meter(), Pager: pg}
	for _, id := range e.order {
		v := e.views[id]
		entry := e.store.MustEntry(cache.ID(id))
		keys, recs := query.Materialize(v.FullPlan, v.Key, ctx)
		entry.ReplaceAt(pg, keys, recs, pg.Disk().CommitStamp())
		entry.MarkValid(pg)
	}
}

// Apply maintains every registered view after an update transaction that
// deleted the old tuple values in deleted and inserted the new values in
// inserted on rel (an in-place modification contributes to both). A
// traced pager records avm.route and avm.merge child spans covering the
// two maintenance phases. When the store has a ledger, Apply records one
// KindMaintained event per patched view, carrying the view's routing
// share (screens and delta ops are charged per routed pair, so the share
// is exact) plus its measured delta-plan and patch cost.
func (e *Engine) Apply(pg *storage.Pager, rel *relation.Relation, inserted, deleted [][]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, l := pg.Tracer(), e.store.LedgerRef()
	// Maintenance work runs attributed to the avm component; the delta
	// plans' scan and probe nodes re-scope their own page I/O underneath.
	meter := pg.Meter()
	prevComp := meter.SetComponent(metric.CompAVM)
	defer meter.SetComponent(prevComp)

	// Phase 1 — rule-indexed screening: route each changed tuple value to
	// the views whose band on the routed attribute it falls in, charging
	// one screen per (value, view) pair, and accumulate the A_net/D_net
	// sets at C3 per entry.
	relName := rel.Schema().Name()
	sch := rel.Schema()
	routes := e.routes[relName]
	if len(routes) == 0 {
		return
	}
	routed := 0
	var routedBy map[int]int
	if l != nil {
		routedBy = make(map[int]int)
	}
	route := func(tup []byte, into map[int][][]byte) {
		for _, r := range routes {
			e.router.Conflicts(r.key, sch.Get(tup, r.field), func(o ilock.Owner) {
				id := int(o)
				if _, ours := e.views[id]; !ours {
					return // lock owned by another subsystem sharing the router
				}
				meter.Screen(1)
				into[id] = append(into[id], tup)
				meter.DeltaOp(1)
				routed++
				if routedBy != nil {
					routedBy[id]++
				}
			})
		}
	}
	rsp := t.Begin("avm.route")
	rsp.Set("rel", relName)
	for _, tup := range deleted {
		route(tup, e.dnet)
	}
	for _, tup := range inserted {
		route(tup, e.anet)
	}
	rsp.Set("tokens", len(inserted)+len(deleted))
	rsp.Set("routed", routed)
	t.End(rsp)

	// Phase 2 — evaluate delta plans and patch stored views:
	// V_new = V ∪ V(a, B) − V(d, B).
	msp := t.Begin("avm.merge")
	defer t.End(msp)
	patched := 0
	defer func() { msp.Set("views", patched) }()
	ctx := &query.Ctx{Meter: meter, Pager: pg}
	costs := meter.Costs()
	for _, id := range e.order {
		a, da := e.anet[id]
		dl, dd := e.dnet[id]
		if !da && !dd {
			continue
		}
		patched++
		var before metric.Counters
		if l != nil {
			before = meter.Snapshot()
		}
		v := e.views[id]
		src := v.sourceFor(relName)
		file := e.store.MustEntry(cache.ID(id)).File()
		if dd {
			plan := src.DeltaPlan(&query.ValuesScan{Sch: sch, Tuples: dl})
			plan.Execute(ctx, func(tup []byte) bool {
				file.Delete(pg, v.Key(tup))
				return true
			})
			delete(e.dnet, id)
		}
		if da {
			plan := src.DeltaPlan(&query.ValuesScan{Sch: sch, Tuples: a})
			plan.Execute(ctx, func(tup []byte) bool {
				// An update that moves a tuple within the band deletes and
				// reinserts the same key; Delete above already removed it.
				file.Add(pg, v.Key(tup), tup)
				return true
			})
			delete(e.anet, id)
		}
		if l != nil {
			// Flush so the view's deferred page writes price into its own
			// event. Views own disjoint files, so per-view flushing never
			// re-dirties another view's frames; totals are unchanged.
			pg.Flush()
			cost := meter.Since(before).Milliseconds(costs) +
				float64(routedBy[id])*(costs.C1+costs.C3)
			l.Record(cache.LedgerEvent{
				Entry:   id,
				Kind:    cache.KindMaintained,
				Op:      pg.OpToken(),
				Session: pg.Session(),
				CostMs:  cost,
			})
		}
	}
}

// Lookup returns the registered view with the given id, or nil.
func (e *Engine) Lookup(id int) *View { return e.views[id] }
