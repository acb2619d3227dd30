package hashidx

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestLookupBatchEqualsLookupEach: over seeded tables with overflow chains
// and duplicate keys, a batch of 1…BatchLen keys — present, absent and
// repeated — calls back with exactly the records, in exactly the order,
// and charges exactly the page reads, of the same keys fed to LookupEach
// one by one on a fresh operation.
func TestLookupBatchEqualsLookupEach(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 4 records a page; 1–7 buckets under 20–200 records drawn from a key
		// space of about half as many, so chains run to dozens of pages and
		// most keys are stored more than once. An empty bucket is likely too.
		tbl, p, m := newTestTable(64, 1+rng.Intn(7))
		space := 10 + rng.Intn(90)
		for n := 20 + rng.Intn(180); n > 0; n-- {
			tbl.Insert(p, recFor(uint64(rng.Intn(space)), rng.Uint64()))
		}
		for n := 1; n <= BatchLen; n++ {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(2 * space)) // half of them absent
			}
			type hit struct {
				i   int
				rec []byte
			}
			var want, got []hit
			p.BeginOp()
			m.Reset()
			for i, key := range keys {
				tbl.LookupEach(p, key, func(rec []byte) bool {
					want = append(want, hit{i, bytes.Clone(rec)})
					return true
				})
			}
			wantReads := m.Snapshot().PageReads
			p.BeginOp()
			m.Reset()
			tbl.LookupBatch(p, keys, func(i int, rec []byte) bool {
				got = append(got, hit{i, bytes.Clone(rec)})
				return true
			})
			if reads := m.Snapshot().PageReads; reads != wantReads {
				t.Fatalf("seed %d, %d keys: the batch charges %d page reads, one by one they charge %d", seed, n, reads, wantReads)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d, %d keys: the batch finds %d records, one by one they find %d", seed, n, len(got), len(want))
			}
			for k := range want {
				if got[k].i != want[k].i || !bytes.Equal(got[k].rec, want[k].rec) {
					t.Fatalf("seed %d, %d keys: callback %d is (key %d, %x), one by one it is (key %d, %x)",
						seed, n, k, got[k].i, got[k].rec, want[k].i, want[k].rec)
				}
			}
		}
	}
}

// TestLookupBatchStopsWhereToldTo: when fn returns false at the k-th
// record, it is not called again, and the operation has read the pages of
// the keys up to the one that record matched, that key's chain only as far
// as the record's page, and nothing of any later key.
func TestLookupBatchStopsWhereToldTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl, p, m := newTestTable(64, 3)
	for n := 0; n < 120; n++ {
		tbl.Insert(p, recFor(uint64(rng.Intn(40)), rng.Uint64()))
	}
	keys := make([]uint64, BatchLen)
	for i := range keys {
		keys[i] = uint64(rng.Intn(60))
	}
	total := 0
	tbl.LookupBatch(p, keys, func(int, []byte) bool { total++; return true })
	if total < 3*BatchLen/2 {
		t.Fatalf("only %d records for %d keys: the table holds too few duplicates to stop inside a chain", total, BatchLen)
	}
	for k := 1; k <= total; k++ {
		// The reference: LookupEach, key by key, told to stop at the same record.
		p.BeginOp()
		m.Reset()
		seen := 0
		for _, key := range keys {
			tbl.LookupEach(p, key, func([]byte) bool { seen++; return seen < k })
			if seen == k {
				break
			}
		}
		wantReads := m.Snapshot().PageReads
		p.BeginOp()
		m.Reset()
		calls := 0
		tbl.LookupBatch(p, keys, func(int, []byte) bool { calls++; return calls < k })
		if calls != k {
			t.Fatalf("told to stop at record %d, the batch called back %d times", k, calls)
		}
		if reads := m.Snapshot().PageReads; reads != wantReads {
			t.Fatalf("stopped at record %d, the batch has read %d pages; probing up to that record reads %d", k, reads, wantReads)
		}
	}
}
