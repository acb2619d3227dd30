// Package proc implements database procedures — queries stored in the
// database — and the paper's strategies for processing queries against
// them:
//
//   - AlwaysRecompute executes the procedure's compiled plan on every
//     access.
//   - CacheInvalidate serves a cached result while valid; i-locks set by
//     rule indexing during computation detect conflicting updates, which
//     invalidate the cache; the next access recomputes and refreshes it.
//   - UpdateCache keeps the cached result permanently current by routing
//     every update through a view-maintenance engine (AVM or RVM).
//
// All strategies share the Manager's procedure definitions; each strategy
// instance owns its own cache and lock state so alternatives can be
// compared on identical workloads.
package proc

import (
	"fmt"

	"dbproc/internal/cache"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// Definition is one stored database procedure: a single compiled retrieve
// query (the procedure model of the paper's section 3).
type Definition struct {
	// ID is the procedure's identity across cache entries and i-locks.
	ID int
	// Name is a human-readable label.
	Name string
	// Plan is the procedure's precompiled execution plan; there is no
	// run-time compilation overhead (the paper's "statically optimized"
	// assumption).
	Plan query.Plan
	// KeyField and IDField name the result attributes whose values cluster
	// the cached result (value and unique-id tiebreaker).
	KeyField, IDField string

	keyIdx, idIdx int
	keyFn         func([]byte) uint64
}

// NewDefinition validates and completes a definition.
func NewDefinition(id int, name string, plan query.Plan, keyField, idField string) *Definition {
	if plan == nil {
		panic("proc: nil plan")
	}
	d := &Definition{
		ID: id, Name: name, Plan: plan,
		KeyField: keyField, IDField: idField,
		keyIdx: plan.Schema().MustFieldIndex(keyField),
		idIdx:  plan.Schema().MustFieldIndex(idField),
	}
	return d
}

// NewDefinitionWithKey builds a definition whose result clustering key
// comes from an arbitrary function instead of two result attributes. Used
// when the result schema carries no natural (value, unique id) pair — the
// key must still be unique per result tuple and ascending keys are
// assigned in plan output order. Definitions built this way support
// Always Recompute and Cache and Invalidate; differential maintenance
// needs content-derived keys.
func NewDefinitionWithKey(id int, name string, plan query.Plan, key func([]byte) uint64) *Definition {
	if plan == nil {
		panic("proc: nil plan")
	}
	if key == nil {
		panic("proc: nil key")
	}
	return &Definition{ID: id, Name: name, Plan: plan, keyFn: key, keyIdx: -1, idIdx: -1}
}

// ResultKey returns the cluster key of one result tuple.
func (d *Definition) ResultKey(tup []byte) uint64 {
	if d.keyFn != nil {
		return d.keyFn(tup)
	}
	s := d.Plan.Schema()
	return tuple.ClusterKey(s.Get(tup, d.keyIdx), s.Get(tup, d.idIdx))
}

// DefineEntry creates the procedure's (invalid, empty) cache entry in
// store, for a disk of pageSize-byte pages: result tuples are stored at
// their packed size, as many to a page as the result schema's model width
// S allows (⌊B/S⌋).
func (d *Definition) DefineEntry(store *cache.Store, pageSize int) *cache.Entry {
	s := d.Plan.Schema()
	return store.Define(cache.ID(d.ID), s.Size(), s.PerPage(pageSize))
}

// Manager registers procedure definitions.
type Manager struct {
	defs  map[int]*Definition
	order []int
}

// NewManager returns an empty registry.
func NewManager() *Manager {
	return &Manager{defs: make(map[int]*Definition)}
}

// Define registers a procedure; redefining an id panics.
func (m *Manager) Define(d *Definition) {
	if _, dup := m.defs[d.ID]; dup {
		panic(fmt.Sprintf("proc: procedure %d already defined", d.ID))
	}
	m.defs[d.ID] = d
	m.order = append(m.order, d.ID)
}

// Get returns the definition for id, or nil.
func (m *Manager) Get(id int) *Definition { return m.defs[id] }

// MustGet returns the definition for id or panics.
func (m *Manager) MustGet(id int) *Definition {
	d := m.defs[id]
	if d == nil {
		panic(fmt.Sprintf("proc: procedure %d not defined", id))
	}
	return d
}

// IDs returns the procedure ids in definition order.
func (m *Manager) IDs() []int { return m.order }

// Len returns the number of defined procedures.
func (m *Manager) Len() int { return len(m.defs) }

// Delta is one update transaction's net effect on a base relation:
// Deleted holds the old values of the modified tuples, Inserted the new
// values (an in-place modification contributes one of each).
type Delta struct {
	Rel      *relation.Relation
	Inserted [][]byte
	Deleted  [][]byte
}

// Strategy processes queries against procedures under one of the paper's
// algorithms. Every method takes the calling session's pager: strategies
// keep shared state (caches, lock tables, maintenance networks) but charge
// all metered I/O and cost events to the session doing the work. The
// engine's 2PL footprints serialize conflicting calls; strategies only
// need internal synchronization for state read outside those footprints.
type Strategy interface {
	// Name returns the paper's name for the strategy.
	Name() string
	// Prepare performs one-time setup (cache fills, lock installation,
	// network builds). The caller runs it with cost charging disabled, as
	// setup cost is excluded from the model.
	Prepare(pg *storage.Pager)
	// Access processes a query that retrieves the value of procedure id,
	// returning its result tuples. The tuples are borrowed — a cache hit
	// returns sub-slices of the immutable page images it read — so they
	// are read-only, and a caller that keeps one copies it. They are valid
	// until pg's next BeginOp, and, since version GC reclaims the images
	// the horizon has passed for later updates to work in, no longer than
	// pg's scope: the snapshot it reads under (Pager.OpenScope). The
	// strategies that decide cache visibility (Cache and Invalidate,
	// Adaptive) decide it at that snapshot, and panic on a pager reading
	// at none.
	Access(pg *storage.Pager, id int) [][]byte
	// OnUpdate is invoked after each update transaction commits.
	OnUpdate(pg *storage.Pager, d Delta)
}
