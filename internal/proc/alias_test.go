package proc

import (
	"bytes"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
	"dbproc/internal/dbtest/aliastest"
	"dbproc/internal/query"
)

// TestStrategiesCopyWhatTheyKeep: a strategy returns its result to the
// caller and, when it caches, writes it back after the plan has finished,
// so both must be copies of the borrowed tuples the plan emitted. Always
// Recompute and Cache and Invalidate (first fill, warm read, refresh after
// an invalidation) are run over a plan whose tuples are overwritten as
// soon as emit returns, and must answer what they answer over the plain
// plan.
func TestStrategiesCopyWhatTheyKeep(t *testing.T) {
	run := func(wrap func(query.Plan) query.Plan, build func(*dbtest.World, *Manager) Strategy) [][][]byte {
		w := dbtest.NewWorld(dbtest.Config{})
		d := p2Def(w, 2, 50, 89)
		d.Plan = wrap(d.Plan)
		m := NewManager()
		m.Define(d)
		s := build(w, m)
		w.Pager.SetCharging(false)
		s.Prepare(w.Pager)
		w.Pager.BeginOp()
		w.Pager.SetCharging(true)
		var answers [][][]byte
		get := func() { answers = append(answers, access(w, s, 2)) }
		get()
		moveTuple(t, w, s, 110, 110, 55) // joins and passes C_f2
		get()
		get()
		moveTuple(t, w, s, 60, 60, 199)
		get()
		return answers
	}
	plain := func(p query.Plan) query.Plan { return p }
	for name, build := range map[string]func(*dbtest.World, *Manager) Strategy{
		"Always Recompute": func(_ *dbtest.World, m *Manager) Strategy { return NewAlwaysRecompute(m) },
		"Cache and Invalidate": func(w *dbtest.World, m *Manager) Strategy {
			return NewCacheInvalidate(m, cache.NewStore(w.Pager.Disk()))
		},
	} {
		want, got := run(plain, build), run(aliastest.Borrowed, build)
		for i := range want {
			if len(want[i]) == 0 || len(got[i]) != len(want[i]) {
				t.Fatalf("%s: access %d returned %d tuples over the borrowed plan, %d over the plain one",
					name, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if !bytes.Equal(got[i][j], want[i][j]) {
					t.Fatalf("%s: access %d tuple %d differs over the borrowed plan: a tuple was kept without a copy", name, i, j)
				}
			}
		}
	}
}
