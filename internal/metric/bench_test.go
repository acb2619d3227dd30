package metric

import "testing"

// BenchmarkMeterAttributed measures the charge mix of an index scan on
// the component-attributed meter with tracing disabled — the production
// hot path, an indexed add per charge. TestChargesAllocateNothing holds it
// to no allocation.
func BenchmarkMeterAttributed(b *testing.B) {
	m := NewMeter(DefaultCosts())
	m.SetComponent(CompBTree)
	for i := 0; i < b.N; i++ {
		m.Screen(1)
		m.PageRead(1)
		m.DeltaOp(1)
		m.Screen(1)
	}
	if m.Snapshot().Screens == 0 {
		b.Fatal("no events recorded")
	}
}

// BenchmarkMeterAttributedScoped adds a scope switch per iteration, the
// worst realistic case (every charge under a fresh component scope).
func BenchmarkMeterAttributedScoped(b *testing.B) {
	m := NewMeter(DefaultCosts())
	for i := 0; i < b.N; i++ {
		prev := m.SetComponent(CompHashIdx)
		m.Screen(1)
		m.PageRead(1)
		m.DeltaOp(1)
		m.Screen(1)
		m.SetComponent(prev)
	}
	if m.Snapshot().Screens == 0 {
		b.Fatal("no events recorded")
	}
}
