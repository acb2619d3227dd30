package rete

import (
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/dbtest"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

func TestEngineAdaptsNetworkToMaintainer(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	net := NewNetwork(w.Pager.Disk())
	s1 := w.R1.Schema()
	tc := net.TConst(s1, "skey", 20, 39)
	alpha := net.NewMemory(s1, nil, r1Key(s1))
	tc.Attach(alpha)

	prepared := false
	eng := NewEngine(net, cache.NewStore(w.Pager.Disk()), func(pg *storage.Pager) {
		prepared = true
		w.R1.Tree().ScanAll(w.Pager, func(rec []byte) bool {
			net.Submit(w.Pager, "r1", Token{Tag: Plus, Tuple: append([]byte(nil), rec...)})
			return true
		})
	})
	if eng.Name() != "RVM" || eng.Network() != net {
		t.Fatal("engine accessors wrong")
	}
	eng.Prepare(w.Pager)
	if !prepared || alpha.Len() != 20 {
		t.Fatalf("prepare did not fill (len=%d)", alpha.Len())
	}

	// Apply turns a delta into -/+ tokens in order.
	old, _ := w.R1.Tree().Get(w.Pager, tuple.ClusterKey(25, 25))
	newTup := append([]byte(nil), old...)
	s1.SetByName(newTup, "skey", 99)
	eng.Apply(w.Pager, w.R1, [][]byte{newTup}, [][]byte{old})
	if alpha.File().Contains(tuple.ClusterKey(25, 25)) {
		t.Fatal("deleted token not applied")
	}
	if alpha.Len() != 19 {
		t.Fatalf("alpha len = %d, want 19", alpha.Len())
	}
}

func TestEngineNilPrepare(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	eng := NewEngine(NewNetwork(w.Pager.Disk()), nil, nil)
	eng.Prepare(w.Pager) // must not panic
}

func TestNaiveDispatchSameContentsMoreScreens(t *testing.T) {
	build := func(naive bool) (*Network, *Memory, *Memory, *dbtest.World) {
		w := dbtest.NewWorld(dbtest.Config{})
		net := NewNetwork(w.Pager.Disk())
		net.SetNaiveDispatch(naive)
		s1 := w.R1.Schema()
		tcA := net.TConst(s1, "skey", 20, 39)
		a := net.NewMemory(s1, nil, r1Key(s1))
		tcA.Attach(a)
		tcB := net.TConst(s1, "skey", 100, 119)
		b := net.NewMemory(s1, nil, r1Key(s1))
		tcB.Attach(b)
		w.R1.Tree().ScanAll(w.Pager, func(rec []byte) bool {
			net.Submit(w.Pager, "r1", Token{Tag: Plus, Tuple: append([]byte(nil), rec...)})
			return true
		})
		return net, a, b, w
	}
	_, a1, b1, w1 := build(false)
	_, a2, b2, w2 := build(true)
	if a1.Len() != a2.Len() || b1.Len() != b2.Len() {
		t.Fatalf("naive dispatch changed contents: %d/%d vs %d/%d", a1.Len(), b1.Len(), a2.Len(), b2.Len())
	}
	// Indexed: one screen per matching (token, t-const); naive: one per
	// (token, t-const) pair regardless: 200 tokens x 2 t-consts.
	idx := w1.Meter.Snapshot().Screens
	naive := w2.Meter.Snapshot().Screens
	if idx != 40 {
		t.Fatalf("indexed dispatch screens = %d, want 40", idx)
	}
	if naive != 400 {
		t.Fatalf("naive dispatch screens = %d, want 400", naive)
	}
}

func TestNodeStringsAndAccessors(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	net := NewNetwork(w.Pager.Disk())
	s1 := w.R1.Schema()
	band := net.TConst(s1, "skey", 5, 9)
	if got := band.String(); got != "t-const(5 <= r1.skey <= 9)" {
		t.Errorf("band String = %q", got)
	}
	eq := net.TConst(s1, "skey", 7, 7)
	if got := eq.String(); got != "t-const(r1.skey = 7)" {
		t.Errorf("eq String = %q", got)
	}
	mem := net.NewMemory(s1, nil, r1Key(s1))
	if mem.Schema() != s1 {
		t.Error("Memory.Schema wrong")
	}
	chained := net.TConstChained(s1, "a", 0, 3)
	if chained.String() != "t-const(0 <= r1.a <= 3)" {
		t.Errorf("chained String = %q", chained.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("inverted chained band should panic")
		}
	}()
	net.TConstChained(s1, "a", 3, 0)
}

func TestMemoryLoad(t *testing.T) {
	w := dbtest.NewWorld(dbtest.Config{})
	net := NewNetwork(w.Pager.Disk())
	s1 := w.R1.Schema()
	mem := net.NewMemory(s1, nil, r1Key(s1))
	keys := []uint64{tuple.ClusterKey(1, 1), tuple.ClusterKey(2, 2)}
	recs := [][]byte{w.R1Tuple(1, 1, 0), w.R1Tuple(2, 2, 0)}
	mem.Load(w.Pager, keys, recs)
	if mem.Len() != 2 || !mem.File().Contains(keys[0]) {
		t.Fatal("Load failed")
	}
}
