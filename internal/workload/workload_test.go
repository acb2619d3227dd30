package workload

import (
	"math"
	"testing"
)

func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSequenceCounts(t *testing.T) {
	g := New(1, 0.2, ids(10))
	ops := expand(g.Sequence(30, 70))
	if len(ops) != 100 {
		t.Fatalf("len = %d", len(ops))
	}
	var k, q int
	for _, op := range ops {
		if op.Kind == Update {
			k++
		} else {
			q++
			if op.ProcID < 0 || op.ProcID >= 10 {
				t.Fatalf("bad proc id %d", op.ProcID)
			}
		}
	}
	if k != 30 || q != 70 {
		t.Fatalf("k=%d q=%d", k, q)
	}
}

func TestSequenceDeterministic(t *testing.T) {
	a := expand(New(7, 0.2, ids(10)).Sequence(20, 20))
	b := expand(New(7, 0.2, ids(10)).Sequence(20, 20))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
	c := expand(New(8, 0.2, ids(10)).Sequence(20, 20))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical sequences")
	}
}

// TestLocalitySkew: with Z = 0.2, the 20% hot procedures should receive
// about 80% of accesses.
func TestLocalitySkew(t *testing.T) {
	g := New(3, 0.2, ids(100))
	hot := map[int]bool{}
	for _, id := range g.HotSet() {
		hot[id] = true
	}
	if len(hot) != 20 {
		t.Fatalf("hot set size %d, want 20", len(hot))
	}
	const draws = 20000
	hotHits := 0
	for i := 0; i < draws; i++ {
		if hot[g.PickProc()] {
			hotHits++
		}
	}
	frac := float64(hotHits) / draws
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot fraction = %.3f, want ~0.80", frac)
	}
}

func TestUniformWhenZHalf(t *testing.T) {
	g := New(3, 0.5, ids(10))
	counts := map[int]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[g.PickProc()]++
	}
	for id, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("proc %d got fraction %.3f, want ~0.1", id, frac)
		}
	}
}

func TestPickDistinct(t *testing.T) {
	g := New(5, 0.2, ids(4))
	got := g.PickDistinct(50, 60)
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 60 {
			t.Fatalf("out of range %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(got) != 50 {
		t.Fatalf("len = %d", len(got))
	}
	// Full coverage draw.
	all := g.PickDistinct(10, 10)
	if len(all) != 10 {
		t.Fatal("full draw failed")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no procs":        func() { New(1, 0.2, nil) },
		"no procs bad Z":  func() { New(1, 0, nil) },
		"negative k":      func() { New(1, 0.2, ids(5)).Sequence(-1, 2) },
		"too many picks":  func() { New(1, 0.2, ids(5)).PickDistinct(5, 4) },
		"id past 31 bits": func() { New(1, 0.2, []int{0, 1 << 31}) },
		"negative id":     func() { New(1, 0.2, []int{-1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestClampZ: degenerate skews fold explicitly into [ZMin, 1−ZMin]
// instead of panicking or relying on implicit behavior downstream.
func TestClampZ(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want float64
	}{
		{"zero", 0, ZMin},
		{"one", 1, 1 - ZMin},
		{"negative", -3, ZMin},
		{"above one", 7, 1 - ZMin},
		{"tiny", ZMin / 10, ZMin},
		{"near one", 1 - ZMin/10, 1 - ZMin},
		{"nan", math.NaN(), 0.5},
		{"interior", 0.2, 0.2},
		{"neutral", 0.5, 0.5},
		{"at floor", ZMin, ZMin},
		{"at ceiling", 1 - ZMin, 1 - ZMin},
		{"+inf", math.Inf(1), 1 - ZMin},
		{"-inf", math.Inf(-1), ZMin},
	}
	for _, c := range cases {
		if got := ClampZ(c.in); got != c.want {
			t.Errorf("%s: ClampZ(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

// TestDegenerateZGenerates: Z at and beyond the endpoints must build a
// working generator (clamped), not panic, and its sequences must stay
// deterministic per seed.
func TestDegenerateZGenerates(t *testing.T) {
	for _, z := range []float64{0, 1, -0.5, 2, math.NaN()} {
		g := New(11, z, ids(10))
		ops := expand(g.Sequence(5, 15))
		if len(ops) != 20 {
			t.Fatalf("Z=%v: len = %d", z, len(ops))
		}
		for _, op := range ops {
			if op.Kind == Query && (op.ProcID < 0 || op.ProcID >= 10) {
				t.Fatalf("Z=%v: bad proc id %d", z, op.ProcID)
			}
		}
		again := expand(New(11, z, ids(10)).Sequence(5, 15))
		for i := range ops {
			if ops[i] != again[i] {
				t.Fatalf("Z=%v: sequence not deterministic at %d", z, i)
			}
		}
	}
}

// TestHotSetDeterminism: the hot set is a pure function of (seed, Z,
// ids) — same seed, same set; and across many seeds the sets differ
// (the shuffle actually depends on the seed).
func TestHotSetDeterminism(t *testing.T) {
	key := func(hs []int) string {
		b := make([]byte, 0, len(hs)*3)
		for _, id := range hs {
			b = append(b, byte(id), byte(id>>8), ',')
		}
		return string(b)
	}
	distinct := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		a := New(seed, 0.2, ids(50)).HotSet()
		b := New(seed, 0.2, ids(50)).HotSet()
		if key(a) != key(b) {
			t.Fatalf("seed %d: hot set not deterministic", seed)
		}
		if len(a) != 10 {
			t.Fatalf("seed %d: hot set size %d, want 10", seed, len(a))
		}
		distinct[key(a)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("hot set identical across all seeds — shuffle ignores seed")
	}
}

func TestSingleHotProc(t *testing.T) {
	// Tiny populations still work: one procedure is always the hot one.
	g := New(1, 0.2, []int{42})
	for i := 0; i < 10; i++ {
		if g.PickProc() != 42 {
			t.Fatal("single proc not picked")
		}
	}
}
