package cache

import "testing"

// BenchmarkInvalidateLedgerOff measures the production Invalidate with
// no ledger attached — the zero-diagnosis path: the validity flip under
// the entry mutex and the C_inval charge. TestInvalidateLedgerOffAllocatesNothing
// holds it to no allocation.
func BenchmarkInvalidateLedgerOff(b *testing.B) {
	s, pg, _ := newStore(0.1)
	e := s.Define(1, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Invalidate(pg)
	}
	if s.LedgerRef() != nil {
		b.Fatal("ledger unexpectedly attached")
	}
}

// BenchmarkInvalidateLedgerOn prices the ledger itself (snapshot, delta
// pricing, one event append). Informational — not guarded, since
// attaching the ledger is an explicit opt-in.
func BenchmarkInvalidateLedgerOn(b *testing.B) {
	s, pg, _ := newStore(0.1)
	e := s.Define(1, 8, 4)
	s.SetLedger(NewLedger())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Invalidate(pg)
	}
	if got := len(s.LedgerRef().Events()); got != b.N {
		b.Fatalf("recorded %d events, want %d", got, b.N)
	}
}
