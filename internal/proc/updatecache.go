package proc

import (
	"dbproc/internal/cache"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
)

// Maintainer is a differential view-maintenance engine that keeps every
// procedure's cached result current; avm.Engine satisfies it directly and
// rete networks through rete-side adapters built by the simulator. Both
// methods take the acting session's pager and charge its meter.
type Maintainer interface {
	// Name identifies the algorithm ("AVM" or "RVM").
	Name() string
	// Prepare performs the engine's one-time fill; run uncharged.
	Prepare(pg *storage.Pager)
	// Apply maintains all results after an update transaction on rel.
	Apply(pg *storage.Pager, rel *relation.Relation, inserted, deleted [][]byte)
}

// UpdateCache answers procedure queries straight from the always-current
// cache and forwards every update to its maintenance engine — the paper's
// Update Cache strategy, in its AVM (non-shared) or RVM (shared) variant
// depending on the engine supplied.
type UpdateCache struct {
	mgr   *Manager
	store *cache.Store
	maint Maintainer
	// ledger, when set, receives hit events per access. Maintenance
	// events come from the maintainer itself when it accepts a ledger
	// (AVM records per view); otherwise maintSelf is false and OnUpdate
	// records the aggregate maintenance delta under entry −1 (RVM's
	// shared Rete propagation has no per-view attribution).
	ledger    *cache.Ledger
	maintSelf bool
}

// NewUpdateCache builds the strategy over a cache store whose entries the
// engine maintains.
func NewUpdateCache(mgr *Manager, store *cache.Store, maint Maintainer) *UpdateCache {
	return &UpdateCache{mgr: mgr, store: store, maint: maint}
}

// Name implements Strategy.
func (s *UpdateCache) Name() string { return "Update Cache (" + s.maint.Name() + ")" }

// CacheStore exposes the strategy's cache store (telemetry observers
// attach here).
func (s *UpdateCache) CacheStore() *cache.Store { return s.store }

// SetTracer forwards the tracer to the maintenance engine if it accepts
// one; the strategy's own work (a cache read per access) needs no child
// spans of its own.
func (s *UpdateCache) SetTracer(t *obs.Tracer) {
	if st, ok := s.maint.(interface{ SetTracer(*obs.Tracer) }); ok {
		st.SetTracer(t)
	}
}

// SetLedger attaches a cache-efficacy ledger, forwarding it to the
// maintenance engine when it records its own per-view events.
func (s *UpdateCache) SetLedger(l *cache.Ledger) {
	s.ledger = l
	if sl, ok := s.maint.(interface{ SetLedger(*cache.Ledger) }); ok {
		sl.SetLedger(l)
		s.maintSelf = true
	}
}

// Prepare implements Strategy.
func (s *UpdateCache) Prepare(pg *storage.Pager) { s.maint.Prepare(pg) }

// Access implements Strategy: one read of the (always valid) cached
// result, returned as borrowed tuples.
func (s *UpdateCache) Access(pg *storage.Pager, id int) [][]byte {
	m := pg.Meter()
	var before metric.Counters
	if s.ledger != nil {
		before = m.Snapshot()
	}
	out := s.store.MustEntry(cache.ID(id)).Records(pg)
	if s.ledger != nil {
		s.ledger.Record(cache.LedgerEvent{
			Entry:   id,
			Kind:    cache.KindHit,
			Op:      pg.OpToken(),
			Session: pg.Session(),
			CostMs:  m.Since(before).Milliseconds(m.Costs()),
		})
	}
	return out
}

// OnUpdate implements Strategy.
func (s *UpdateCache) OnUpdate(pg *storage.Pager, d Delta) {
	if s.ledger == nil || s.maintSelf {
		s.maint.Apply(pg, d.Rel, d.Inserted, d.Deleted)
		return
	}
	m := pg.Meter()
	before := m.Snapshot()
	s.maint.Apply(pg, d.Rel, d.Inserted, d.Deleted)
	// Flush so deferred page writes price into this event (idempotent;
	// the op-level flush then finds the frames clean).
	pg.Flush()
	s.ledger.Record(cache.LedgerEvent{
		Entry:   -1,
		Kind:    cache.KindMaintained,
		Op:      pg.OpToken(),
		Session: pg.Session(),
		CostMs:  m.Since(before).Milliseconds(m.Costs()),
	})
}
