package cache

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAnalyzeLifecycle walks one entry through computed → hits →
// invalidated → recompute and checks every derived statistic.
func TestAnalyzeLifecycle(t *testing.T) {
	events := []LedgerEvent{
		{Entry: 0, Kind: KindComputed, Op: 0, CostMs: 10, Digest: 111},
		{Entry: 0, Kind: KindHit, Op: 1, CostMs: 1},
		{Entry: 0, Kind: KindHit, Op: 2, CostMs: 1},
		{Entry: 0, Kind: KindInvalidated, Op: 3, CostMs: 0.5},
		{Entry: 0, Kind: KindComputed, Op: 4, CostMs: 10, Digest: 222}, // true invalidation: digest changed
	}
	st := Analyze(events, map[int]float64{0: 10})

	if st.Invalidations != 1 || st.FalseInvalidations != 0 || st.ComparableRecomputes != 1 {
		t.Fatalf("invalidation counts: %+v", st)
	}
	if st.WastedGenerations != 0 || st.WastedMs != 0 {
		t.Fatalf("generation with hits counted wasted: %+v", st)
	}
	// The first generation served 2 hits.
	if st.Survival[survivalBucket(2)] != 1 {
		t.Fatalf("survival histogram: %v", st.Survival)
	}
	if len(st.Entries) != 1 {
		t.Fatalf("entries: %+v", st.Entries)
	}
	e := st.Entries[0]
	if e.Computed != 2 || e.Hits != 2 || e.Invalidations != 1 {
		t.Fatalf("entry counts: %+v", e)
	}
	// NetBenefit = (2 hits + 2 computes) × 10ms baseline − (20 compute +
	// 2 hit + 0.5 inval): a recompute is an access Always Recompute pays
	// for too.
	if !approx(e.NetBenefitMs, (2+2)*10-(20+2+0.5)) {
		t.Fatalf("net benefit = %v", e.NetBenefitMs)
	}
	if !approx(st.TotalMs, 22.5) {
		t.Fatalf("total = %v", st.TotalMs)
	}
}

// TestAnalyzeFalseInvalidation: an invalidation whose recompute
// reproduces the prior digest destroyed a still-correct result.
func TestAnalyzeFalseInvalidation(t *testing.T) {
	events := []LedgerEvent{
		{Entry: 3, Kind: KindComputed, CostMs: 5, Digest: 777},
		{Entry: 3, Kind: KindInvalidated, CostMs: 0.1},
		{Entry: 3, Kind: KindComputed, CostMs: 5, Digest: 777},
	}
	st := Analyze(events, nil)
	if st.FalseInvalidations != 1 || st.ComparableRecomputes != 1 {
		t.Fatalf("false invalidation not detected: %+v", st)
	}
	if st.FalseInvalidationRate != 1 {
		t.Fatalf("rate = %v", st.FalseInvalidationRate)
	}
	// The first generation died with zero hits: wasted work.
	if st.WastedGenerations != 1 || !approx(st.WastedMs, 5) {
		t.Fatalf("wasted: %d gens, %vms", st.WastedGenerations, st.WastedMs)
	}
	if st.Survival[survivalBucket(0)] != 1 {
		t.Fatalf("survival: %v", st.Survival)
	}
}

// TestAnalyzeAggregateMaintenance: entry −1 maintenance (RVM's shared
// Rete propagation) is apportioned equally across all known entries,
// including baseline-only entries that saw no events.
func TestAnalyzeAggregateMaintenance(t *testing.T) {
	events := []LedgerEvent{
		{Entry: 0, Kind: KindHit, CostMs: 1},
		{Entry: -1, Kind: KindMaintained, CostMs: 9},
	}
	st := Analyze(events, map[int]float64{0: 4, 1: 4, 2: 4})
	if len(st.Entries) != 3 {
		t.Fatalf("want 3 entries (baseline-only ones included): %+v", st.Entries)
	}
	for _, e := range st.Entries {
		if !approx(e.MaintainMs, 3) {
			t.Fatalf("entry %d maintain share = %v, want 3", e.Entry, e.MaintainMs)
		}
	}
	if !approx(st.MaintainMs, 9) {
		t.Fatalf("run maintain = %v", st.MaintainMs)
	}
	// Entry 0: 1 hit × 4 baseline − (1 hit cost + 3 maintain share) = 0.
	if !approx(st.Entries[0].NetBenefitMs, 0) {
		t.Fatalf("entry 0 net benefit = %v", st.Entries[0].NetBenefitMs)
	}
}

// TestResultDigest pins the digest's discriminating properties.
func TestResultDigest(t *testing.T) {
	d1 := ResultDigest([]uint64{1, 2}, [][]byte{[]byte("a"), []byte("b")})
	d2 := ResultDigest([]uint64{1, 2}, [][]byte{[]byte("a"), []byte("b")})
	d3 := ResultDigest([]uint64{2, 1}, [][]byte{[]byte("b"), []byte("a")})
	d4 := ResultDigest([]uint64{1, 2}, [][]byte{[]byte("a"), []byte("c")})
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	if d1 == d3 || d1 == d4 {
		t.Fatal("digest failed to discriminate order/content")
	}
	if ResultDigest(nil, nil) == 0 {
		t.Fatal("empty digest must not be 0 (reserved for 'no digest')")
	}
}

// TestNilLedgerSafe: every method is a no-op on a nil receiver.
func TestNilLedgerSafe(t *testing.T) {
	var l *Ledger
	l.Record(LedgerEvent{})
	l.SetBaseline(0, 1)
	if l.Events() != nil || l.Baselines() != nil {
		t.Fatal("nil ledger returned data")
	}
	if st := l.Stats(); st.TotalMs != 0 {
		t.Fatal("nil ledger stats nonzero")
	}
}

func TestSurvivalBuckets(t *testing.T) {
	for hits, want := range map[int]int{0: 0, 1: 1, 3: 3, 4: 4, 7: 4, 8: 5, 15: 5, 16: 6, 100: 6} {
		if got := survivalBucket(hits); got != want {
			t.Errorf("bucket(%d) = %d, want %d", hits, got, want)
		}
	}
	if len(SurvivalBuckets) != 7 {
		t.Fatalf("bucket labels: %v", SurvivalBuckets)
	}
}
