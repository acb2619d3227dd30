package proc

import (
	"dbproc/internal/query"
	"dbproc/internal/storage"
)

// AlwaysRecompute executes the procedure's precompiled plan on every
// access: the conventional algorithm (TOT_Recompute in the model). It
// keeps no cached state, so updates cost it nothing.
type AlwaysRecompute struct {
	mgr *Manager
}

// NewAlwaysRecompute builds the strategy over the given definitions.
func NewAlwaysRecompute(mgr *Manager) *AlwaysRecompute {
	return &AlwaysRecompute{mgr: mgr}
}

// Name implements Strategy.
func (s *AlwaysRecompute) Name() string { return "Always Recompute" }

// Prepare implements Strategy; there is nothing to set up.
func (s *AlwaysRecompute) Prepare(*storage.Pager) {}

// Access implements Strategy: run the plan, return its output. A traced
// pager records a recompute.scan child span covering the plan execution.
func (s *AlwaysRecompute) Access(pg *storage.Pager, id int) [][]byte {
	d := s.mgr.MustGet(id)
	t := pg.Tracer()
	sp := t.Begin("recompute.scan")
	sp.Set("proc", id)
	pg.BeginRecompute()
	out := query.Run(d.Plan, &query.Ctx{Meter: pg.Meter(), Pager: pg})
	pg.EndRecompute()
	sp.Set("tuples", len(out))
	t.End(sp)
	return out
}

// OnUpdate implements Strategy; recomputation needs no update hook.
func (s *AlwaysRecompute) OnUpdate(*storage.Pager, Delta) {}
