package proc

import (
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
	"dbproc/internal/vlog"
)

// TestValidityTableSurvivesCrash runs Cache and Invalidate with a
// journaled validity table, "crashes" at an arbitrary point, and checks
// that replaying the journal reconstructs exactly the live validity
// state — the paper's recoverable low-C_inval scheme end to end.
func TestValidityTableSurvivesCrash(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	m := NewManager()
	m.Define(p1Def(w, 0, 10, 19))
	m.Define(p1Def(w, 1, 40, 49))
	m.Define(p2Def(w, 2, 50, 69))
	store := cache.NewStore(w.Pager.Disk())

	dev := vlog.NewDevice()
	journal, err := vlog.New(dev, []int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	journal.CheckpointEvery = 5
	store.SetJournal(journal)

	s := NewCacheInvalidate(m, store)
	w.Pager.SetCharging(false)
	s.Prepare(w.Pager)
	w.Pager.BeginOp()
	w.Pager.SetCharging(true)

	checkRecovery := func(stage string) {
		t.Helper()
		recovered, err := vlog.Recover(dev.Contents())
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", stage, err)
		}
		for _, id := range m.IDs() {
			if got, want := recovered[int32(id)], store.MustEntry(cache.ID(id)).Valid(); got != want {
				t.Fatalf("%s: procedure %d recovered valid=%v, live state %v", stage, id, got, want)
			}
		}
	}
	checkRecovery("after prepare")

	// A mixed run: invalidating updates and revalidating accesses.
	skey := map[int64]int64{12: 12, 44: 44, 55: 55}
	moves := [][2]int64{{12, 99}, {44, 12}, {55, 44}, {12, 55}, {44, 200}, {55, 12}}
	for i, mv := range moves {
		tid := mv[0]
		moveTuple(t, w, s, tid, skey[tid], mv[1])
		skey[tid] = mv[1]
		checkRecovery("after update")
		// Access one procedure (revalidates it if cold).
		access(w, s, i%3)
		checkRecovery("after access")
	}

	// Torn final write: the journal must refuse the flip, and recovery of
	// the torn log must match the state before the failed transition.
	before := store.MustEntry(0).Valid()
	dev.FailAfter(dev.Len() + 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("journal failure should crash")
			}
		}()
		moveTuple(t, w, s, 15, 15, 300)
	}()
	recovered, err := vlog.Recover(dev.Contents())
	if err != nil {
		t.Fatal(err)
	}
	if recovered[0] != before {
		t.Fatalf("recovered valid=%v after torn write, want pre-crash %v", recovered[0], before)
	}
}
