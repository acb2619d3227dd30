package metric

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMeterAccumulatesAndPrices(t *testing.T) {
	m := NewMeter(Costs{C1: 1, C2: 30, C3: 2, CInval: 5})
	m.PageRead(3)
	m.PageWrite(2)
	m.Screen(10)
	m.DeltaOp(4)
	m.Invalidation(6)
	want := 30.0*(3+2) + 1*10 + 2*4 + 5*6
	if got := m.Milliseconds(); got != want {
		t.Fatalf("Milliseconds = %v, want %v", got, want)
	}
	c := m.Snapshot()
	if c.PageReads != 3 || c.PageWrites != 2 || c.Screens != 10 || c.DeltaOps != 4 || c.Invalidations != 6 {
		t.Fatalf("snapshot %+v wrong", c)
	}
}

func TestMeterSinceAndReset(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.PageRead(5)
	snap := m.Snapshot()
	m.PageRead(2)
	m.Screen(7)
	d := m.Since(snap)
	if d.PageReads != 2 || d.Screens != 7 {
		t.Fatalf("Since = %+v, want reads=2 screens=7", d)
	}
	m.Reset()
	if m.Milliseconds() != 0 {
		t.Fatal("Reset did not zero the meter")
	}
	if m.Costs() != DefaultCosts() {
		t.Fatal("Reset changed cost constants")
	}
}

func TestDefaultCostsMatchPaper(t *testing.T) {
	c := DefaultCosts()
	if c.C1 != 1 || c.C2 != 30 || c.C3 != 1 || c.CInval != 0 {
		t.Fatalf("DefaultCosts = %+v, want paper Figure 2 constants", c)
	}
}

func TestCountersAddSubRoundTrip(t *testing.T) {
	f := func(a, b Counters) bool {
		return a.Add(b).Sub(b) == a && a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountersString(t *testing.T) {
	s := Counters{PageReads: 1, PageWrites: 2, Screens: 3, DeltaOps: 4, Invalidations: 5}.String()
	for _, want := range []string{"reads=1", "writes=2", "screens=3", "deltaOps=4", "invals=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestMillisecondsLinearInCounts(t *testing.T) {
	costs := Costs{C1: 1, C2: 30, C3: 1, CInval: 2}
	f := func(r1, w1, s1, r2, w2, s2 uint16) bool {
		a := Counters{PageReads: int64(r1), PageWrites: int64(w1), Screens: int64(s1)}
		b := Counters{PageReads: int64(r2), PageWrites: int64(w2), Invalidations: int64(s2)}
		sum := a.Add(b).Milliseconds(costs)
		parts := a.Milliseconds(costs) + b.Milliseconds(costs)
		diff := sum - parts
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChargesAllocateNothing: with tracing off, a charge is an indexed add
// under the current component and a scope switch is a field swap; neither
// allocates, whatever the component.
func TestChargesAllocateNothing(t *testing.T) {
	m := NewMeter(DefaultCosts())
	allocs := testing.AllocsPerRun(100, func() {
		prev := m.SetComponent(CompHashIdx)
		m.Screen(1)
		m.PageRead(1)
		m.DeltaOp(1)
		m.Screen(1)
		m.SetComponent(prev)
	})
	if allocs != 0 {
		t.Fatalf("a scoped charge mix made %v allocations, want 0", allocs)
	}
	if got := m.Snapshot().Screens; got == 0 {
		t.Fatal("no events recorded")
	}
}
