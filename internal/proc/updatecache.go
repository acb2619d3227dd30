package proc

import (
	"dbproc/internal/cache"
	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
)

// Maintainer is a differential view-maintenance engine that keeps every
// procedure's cached result current; avm.Engine satisfies it directly and
// rete networks through rete-side adapters built by the simulator. Both
// methods take the acting session's pager and charge its meter; Apply
// records its maintenance events on the cache store's ledger, if any.
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

// Prepare implements Strategy.
func (s *UpdateCache) Prepare(pg *storage.Pager) { s.maint.Prepare(pg) }

// Access implements Strategy: one read of the (always valid) cached
// result, returned as borrowed tuples. When the store has a ledger, each
// access records a hit event carrying its meter delta.
func (s *UpdateCache) Access(pg *storage.Pager, id int) [][]byte {
	m := pg.Meter()
	l := s.store.LedgerRef()
	var before metric.Counters
	if l != nil {
		before = m.Snapshot()
	}
	out := s.store.MustEntry(cache.ID(id)).Records(pg)
	if l != nil {
		l.Record(cache.LedgerEvent{
			Entry:   id,
			Kind:    cache.KindHit,
			Op:      pg.OpToken(),
			Session: pg.Session(),
			CostMs:  m.Since(before).Milliseconds(m.Costs()),
		})
	}
	return out
}

// OnUpdate implements Strategy. The maintainer records its own ledger
// events on the store's ledger: AVM one per patched view, RVM one
// aggregate event under entry −1 (shared Rete propagation has no per-view
// attribution).
func (s *UpdateCache) OnUpdate(pg *storage.Pager, d Delta) {
	s.maint.Apply(pg, d.Rel, d.Inserted, d.Deleted)
}
