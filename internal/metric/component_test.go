package metric

import "testing"

func TestComponentNames(t *testing.T) {
	tests := []struct {
		comp Component
		want string
	}{
		{CompPager, "pager"},
		{CompBTree, "btree"},
		{CompHashIdx, "hashidx"},
		{CompCache, "cache"},
		{CompRete, "rete"},
		{CompAVM, "avm"},
		{CompProc, "proc/ci"},
		{CompQuery, "query"},
		{NumComponents, "unknown"},
		{Component(200), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.comp.String(); got != tt.want {
			t.Errorf("Component(%d).String() = %q, want %q", tt.comp, got, tt.want)
		}
	}
	if got := len(Components()); got != int(NumComponents) {
		t.Errorf("Components() has %d entries, want %d", got, NumComponents)
	}
	seen := map[string]bool{}
	for _, c := range Components() {
		name := c.String()
		if name == "unknown" || seen[name] {
			t.Errorf("component %d has bad or duplicate label %q", c, name)
		}
		seen[name] = true
	}
}

func TestMeterMuted(t *testing.T) {
	tests := []struct {
		name   string
		charge func(m *Meter)
		read   func(c Counters) int64
	}{
		{"PageRead", func(m *Meter) { m.PageRead(2) }, func(c Counters) int64 { return c.PageReads }},
		{"PageWrite", func(m *Meter) { m.PageWrite(2) }, func(c Counters) int64 { return c.PageWrites }},
		{"Screen", func(m *Meter) { m.Screen(2) }, func(c Counters) int64 { return c.Screens }},
		{"DeltaOp", func(m *Meter) { m.DeltaOp(2) }, func(c Counters) int64 { return c.DeltaOps }},
		{"Invalidation", func(m *Meter) { m.Invalidation(2) }, func(c Counters) int64 { return c.Invalidations }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := NewMeter(DefaultCosts())
			if prev := m.SetMuted(true); prev {
				t.Fatal("fresh meter reports muted")
			}
			tt.charge(m)
			if got := tt.read(m.Snapshot()); got != 0 {
				t.Fatalf("muted charge recorded %d events", got)
			}
			if prev := m.SetMuted(false); !prev {
				t.Fatal("SetMuted(false) did not report previous muted state")
			}
			tt.charge(m)
			if got := tt.read(m.Snapshot()); got != 2 {
				t.Fatalf("unmuted charge recorded %d events, want 2", got)
			}
			// Muted charges must not leak into any component either.
			m.SetMuted(true)
			tt.charge(m)
			if got := tt.read(m.Breakdown().Total()); got != 2 {
				t.Fatalf("muted charge leaked into breakdown: %d events, want 2", got)
			}
		})
	}
}

func TestMeterAttribution(t *testing.T) {
	m := NewMeter(DefaultCosts())
	if m.Component() != CompPager {
		t.Fatalf("fresh meter component = %v, want pager", m.Component())
	}
	m.PageRead(1) // pager (unscoped)
	prev := m.SetComponent(CompBTree)
	if prev != CompPager {
		t.Fatalf("SetComponent returned %v, want pager", prev)
	}
	m.PageRead(3)
	m.Screen(5)
	inner := m.SetComponent(CompHashIdx) // nested scope
	if inner != CompBTree {
		t.Fatalf("nested SetComponent returned %v, want btree", inner)
	}
	m.PageRead(7)
	m.SetComponent(inner)
	m.Screen(2)
	m.SetComponent(prev)
	m.Invalidation(1) // back to pager

	bd := m.Breakdown()
	if got := bd[CompBTree]; got.PageReads != 3 || got.Screens != 7 {
		t.Errorf("btree counters = %v, want reads=3 screens=7", got)
	}
	if got := bd[CompHashIdx]; got.PageReads != 7 {
		t.Errorf("hashidx counters = %v, want reads=7", got)
	}
	if got := bd[CompPager]; got.PageReads != 1 || got.Invalidations != 1 {
		t.Errorf("pager counters = %v, want reads=1 invals=1", got)
	}
	if total, snap := bd.Total(), m.Snapshot(); total != snap {
		t.Errorf("Breakdown().Total() = %v != Snapshot() = %v", total, snap)
	}
	if snap := m.Snapshot(); snap.PageReads != 11 || snap.Screens != 7 || snap.Invalidations != 1 {
		t.Errorf("aggregate = %v, want reads=11 screens=7 invals=1", snap)
	}
}

func TestMeterSinceWindowAccounting(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.PageRead(4)
	m.SetComponent(CompRete)
	m.Screen(3)

	snap := m.Snapshot()
	bdSnap := m.Breakdown()

	m.Screen(2)
	m.SetComponent(CompAVM)
	m.DeltaOp(6)
	m.SetComponent(CompPager)
	m.PageWrite(1)

	win := m.Since(snap)
	want := Counters{PageWrites: 1, Screens: 2, DeltaOps: 6}
	if win != want {
		t.Errorf("Since window = %v, want %v", win, want)
	}
	bdWin := m.Breakdown().Sub(bdSnap)
	if bdWin[CompRete].Screens != 2 || bdWin[CompAVM].DeltaOps != 6 || bdWin[CompPager].PageWrites != 1 {
		t.Errorf("breakdown window wrong: %+v", bdWin)
	}
	if bdWin.Total() != win {
		t.Errorf("breakdown window total %v != counter window %v", bdWin.Total(), win)
	}
}

func TestMeterResetClearsAllComponents(t *testing.T) {
	m := NewMeter(DefaultCosts())
	m.SetComponent(CompCache)
	m.PageRead(2)
	m.Reset()
	if m.Snapshot() != (Counters{}) {
		t.Fatal("Reset left aggregate counters")
	}
	if m.Breakdown() != (Breakdown{}) {
		t.Fatal("Reset left per-component counters")
	}
	if m.Component() != CompCache {
		t.Fatal("Reset changed the current component")
	}
}
