package rete

import (
	"dbproc/internal/cache"
	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
)

// Engine adapts a Network to the procedure layer's Maintainer interface:
// each update transaction is turned into − tokens for the old tuple values
// and + tokens for the new ones, submitted at the network root.
type Engine struct {
	net     *Network
	store   *cache.Store
	prepare func(pg *storage.Pager)
}

// NewEngine wraps net, whose memories hold the procedures' cached values
// in store's entries; prepare (may be nil) runs the one-time network fill
// when the strategy is prepared.
func NewEngine(net *Network, store *cache.Store, prepare func(pg *storage.Pager)) *Engine {
	return &Engine{net: net, store: store, prepare: prepare}
}

// Name identifies the algorithm.
func (e *Engine) Name() string { return "RVM" }

// Network returns the wrapped network.
func (e *Engine) Network() *Network { return e.net }

// Prepare runs the one-time fill; run it with charging disabled.
func (e *Engine) Prepare(pg *storage.Pager) {
	if e.prepare != nil {
		e.prepare(pg)
	}
}

// Apply submits the transaction's deltas as tokens: deletions first, then
// insertions, so an in-place modification is the paper's "delete followed
// by insert". A traced pager records a rete.propagate span covering the
// propagation. When the store has a ledger, the whole maintenance records
// one KindMaintained event under entry −1: shared propagation has no
// per-view attribution.
func (e *Engine) Apply(pg *storage.Pager, rel *relation.Relation, inserted, deleted [][]byte) {
	m, l := pg.Meter(), e.store.LedgerRef()
	var before metric.Counters
	if l != nil {
		before = m.Snapshot()
	}
	t := pg.Tracer()
	sp := t.Begin("rete.propagate")
	sp.Set("rel", rel.Schema().Name())
	sp.Set("tokens", len(inserted)+len(deleted))
	name := rel.Schema().Name()
	for _, tup := range deleted {
		e.net.Submit(pg, name, Token{Tag: Minus, Tuple: tup})
	}
	for _, tup := range inserted {
		e.net.Submit(pg, name, Token{Tag: Plus, Tuple: tup})
	}
	t.End(sp)
	if l == nil {
		return
	}
	// Flush so deferred page writes price into this event (idempotent;
	// the op-level flush then finds the frames clean).
	pg.Flush()
	l.Record(cache.LedgerEvent{
		Entry:   -1,
		Kind:    cache.KindMaintained,
		Op:      pg.OpToken(),
		Session: pg.Session(),
		CostMs:  m.Since(before).Milliseconds(m.Costs()),
	})
}
