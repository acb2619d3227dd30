package btree

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// Test trees use 16-byte records (key in the first 8 bytes) on small pages
// so splits and height growth happen quickly.

// keyAt0 places the ordering key in the record's first eight bytes; keyOf
// is the same key read by the tests themselves.
var keyAt0 = Key{Hi: 4}

func keyOf(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

func recFor(key uint64, val uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], val)
	return b
}

func newTestTree(pageSize int) (*Tree, *storage.Pager, *metric.Meter) {
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(pageSize), m)
	// 4 records per leaf, 5 entries per internal node.
	return New(p.Disk(), 16, pageSize/5, keyAt0), p, m
}

func TestEmptyTree(t *testing.T) {
	tr, p, _ := newTestTree(64)
	if tr.Len() != 0 || tr.Height() != 1 || tr.LeafPages() != 1 {
		t.Fatalf("empty tree: Len=%d Height=%d Leaves=%d", tr.Len(), tr.Height(), tr.LeafPages())
	}
	if _, ok := tr.Get(p, 5); ok {
		t.Fatal("Get on empty tree hit")
	}
	if tr.Delete(p, 5) {
		t.Fatal("Delete on empty tree hit")
	}
	tr.ScanAll(p, func([]byte) bool { t.Fatal("scan on empty tree visited"); return true })
}

func TestInsertGetSequential(t *testing.T) {
	tr, p, _ := newTestTree(64)
	const n = 500
	for i := uint64(0); i < n; i++ {
		tr.Insert(p, recFor(i, i*10))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.Height() < 3 {
		t.Fatalf("Height = %d, want >= 3 for %d records at 4/leaf", tr.Height(), n)
	}
	for i := uint64(0); i < n; i++ {
		rec, ok := tr.Get(p, i)
		if !ok || binary.LittleEndian.Uint64(rec[8:]) != i*10 {
			t.Fatalf("Get(%d) = %v, %v", i, rec, ok)
		}
	}
	if _, ok := tr.Get(p, n); ok {
		t.Fatal("Get past end hit")
	}
}

func TestInsertRandomScanSorted(t *testing.T) {
	tr, p, _ := newTestTree(64)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(1000)
	for _, k := range perm {
		tr.Insert(p, recFor(uint64(k), uint64(k)))
	}
	var got []uint64
	tr.ScanAll(p, func(rec []byte) bool {
		got = append(got, keyOf(rec))
		return true
	})
	if len(got) != 1000 {
		t.Fatalf("scan visited %d records", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan out of order")
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tr, p, _ := newTestTree(64)
	tr.Insert(p, recFor(7, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert should panic")
		}
	}()
	tr.Insert(p, recFor(7, 2))
}

func TestScanRange(t *testing.T) {
	tr, p, _ := newTestTree(64)
	for i := uint64(0); i < 200; i += 2 {
		tr.Insert(p, recFor(i, i))
	}
	var got []uint64
	tr.ScanRange(p, 50, 61, func(rec []byte) bool {
		got = append(got, keyOf(rec))
		return true
	})
	want := []uint64{50, 52, 54, 56, 58, 60}
	if len(got) != len(want) {
		t.Fatalf("ScanRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanRange = %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.ScanRange(p, 0, 1000, func([]byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
	// Inverted and out-of-range scans visit nothing.
	tr.ScanRange(p, 61, 50, func([]byte) bool { t.Fatal("inverted range visited"); return true })
	hits := 0
	tr.ScanRange(p, 500, 1000, func([]byte) bool { hits++; return true })
	if hits != 0 {
		t.Fatalf("out-of-range scan visited %d", hits)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	tr, p, _ := newTestTree(64)
	const n = 300
	for i := uint64(0); i < n; i++ {
		tr.Insert(p, recFor(i, i))
	}
	// Delete the evens.
	for i := uint64(0); i < n; i += 2 {
		if !tr.Delete(p, i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := uint64(0); i < n; i++ {
		_, ok := tr.Get(p, i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
	// Reinsert the evens; everything should be back.
	for i := uint64(0); i < n; i += 2 {
		tr.Insert(p, recFor(i, i))
	}
	var count int
	prev := int64(-1)
	tr.ScanAll(p, func(rec []byte) bool {
		k := int64(keyOf(rec))
		if k <= prev {
			t.Fatalf("order violated at %d after churn", k)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan after churn visited %d, want %d", count, n)
	}
}

func TestDeleteAllCollapsesTree(t *testing.T) {
	tr, p, _ := newTestTree(64)
	const n = 200
	for i := uint64(0); i < n; i++ {
		tr.Insert(p, recFor(i, i))
	}
	for i := uint64(0); i < n; i++ {
		if !tr.Delete(p, i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 || tr.LeafPages() != 1 {
		t.Fatalf("tree did not collapse: Height=%d Leaves=%d", tr.Height(), tr.LeafPages())
	}
	// The tree is usable again.
	tr.Insert(p, recFor(5, 5))
	if _, ok := tr.Get(p, 5); !ok {
		t.Fatal("insert after drain failed")
	}
	_ = p
}

func TestLeafPagesTracksBlockingFactor(t *testing.T) {
	tr, p, _ := newTestTree(64) // 4 records per leaf
	for i := uint64(0); i < 400; i++ {
		tr.Insert(p, recFor(i, i))
	}
	// Splits leave leaves at least half full: 400 records needs >= 100 and
	// <= 200 leaves.
	if lp := tr.LeafPages(); lp < 100 || lp > 200 {
		t.Fatalf("LeafPages = %d for 400 records at cap 4", lp)
	}
	if tr.LeafCapacity() != 4 {
		t.Fatalf("LeafCapacity = %d", tr.LeafCapacity())
	}
}

func TestRangeScanIOCharges(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	// Page 4000 bytes, records 100 bytes -> 40/leaf; index entries 20
	// bytes -> fanout 200, as in the paper.
	p := storage.NewPager(storage.NewDisk(4000), m)
	p.SetCharging(false)
	const n = 10_000
	recs := make([][]byte, n)
	for i := range recs {
		r := make([]byte, 100)
		binary.LittleEndian.PutUint64(r, uint64(i))
		recs[i] = r
	}
	tr := BulkLoad(p, 100, 20, Key{Hi: 4}, recs)
	p.SetCharging(true)
	if tr.Fanout() != 200 {
		t.Fatalf("Fanout = %d, want 200", tr.Fanout())
	}

	// Scan 100 consecutive records: expect H reads for the descent below
	// the pinned root plus ceil(100/40)..+1 leaf reads.
	p.BeginOp()
	m.Reset()
	count := 0
	tr.ScanRange(p, 4000, 4099, func([]byte) bool { count++; return true })
	if count != 100 {
		t.Fatalf("scanned %d records, want 100", count)
	}
	reads := m.Snapshot().PageReads
	internalLevels := int64(tr.Height() - 2) // minus leaf level, minus pinned root
	wantLo := internalLevels + 3             // 100 records over >= 3 leaves
	wantHi := internalLevels + 4             // may straddle one extra leaf
	if reads < wantLo || reads > wantHi {
		t.Fatalf("range scan charged %d reads, want in [%d, %d] (height %d)", reads, wantLo, wantHi, tr.Height())
	}
}

func TestGetChargesDescent(t *testing.T) {
	tr, p, m := newTestTree(64)
	p.SetCharging(false)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(p, recFor(i, i))
	}
	p.SetCharging(true)
	p.BeginOp()
	m.Reset()
	if _, ok := tr.Get(p, 50); !ok {
		t.Fatal("Get missed")
	}
	// Height levels minus the pinned root, including the leaf.
	want := int64(tr.Height() - 1)
	if got := m.Snapshot().PageReads; got != want {
		t.Fatalf("Get charged %d reads, want %d (height %d, root pinned)", got, want, tr.Height())
	}
}

func TestConstructorPanics(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(64), m)
	for name, fn := range map[string]func(){
		"record too large": func() { New(p.Disk(), 40, 16, keyAt0) },
		"entry too small":  func() { New(p.Disk(), 16, 8, keyAt0) },
		"fanout too small": func() { New(p.Disk(), 16, 32, keyAt0) },
		"key past record":  func() { New(p.Disk(), 16, 13, Key{Hi: 13}) },
		"bad record size":  func() { tr, p, _ := newTestTree(64); tr.Insert(p, make([]byte, 8)) },
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

// Property test: the tree behaves like a sorted map under random
// insert/delete interleavings.
func TestTreeMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		tr, p, _ := newTestTree(64)
		ref := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		ops := int(n) + 50
		for i := 0; i < ops; i++ {
			k := uint64(rng.Intn(64))
			if rng.Intn(3) > 0 { // insert-biased
				if _, dup := ref[k]; !dup {
					v := rng.Uint64()
					tr.Insert(p, recFor(k, v))
					ref[k] = v
				}
			} else {
				had := tr.Delete(p, k)
				if _, want := ref[k]; had != want {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		ok := true
		prev := int64(-1)
		count := 0
		tr.ScanAll(p, func(rec []byte) bool {
			k := keyOf(rec)
			if int64(k) <= prev {
				ok = false
				return false
			}
			prev = int64(k)
			v, in := ref[k]
			if !in || binary.LittleEndian.Uint64(rec[8:]) != v {
				ok = false
				return false
			}
			count++
			return true
		})
		return ok && count == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperGeometry checks the default-parameter geometry the cost model
// assumes: 100,000 records of 100 bytes on 4,000-byte pages with 20-byte
// index entries give 2,500 full leaves at blocking factor 40.
func TestPaperGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk geometry test")
	}
	m := metric.NewMeter(metric.DefaultCosts())
	p := storage.NewPager(storage.NewDisk(4000), m)
	tr := New(p.Disk(), 100, 20, Key{Hi: 4})
	p.SetCharging(false)
	rec := make([]byte, 100)
	for i := uint64(0); i < 100_000; i++ {
		binary.LittleEndian.PutUint64(rec, i)
		tr.Insert(p, append([]byte(nil), rec...))
	}
	if tr.Len() != 100_000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Sequential load splits leave ~half-full leaves in general, but our
	// split puts the new key in the right half, so sequential keys fill
	// ~50%: accept [2500, 5100].
	if lp := tr.LeafPages(); lp < 2500 || lp > 5100 {
		t.Fatalf("LeafPages = %d", lp)
	}
	if h := tr.Height(); h < 3 || h > 4 {
		t.Fatalf("Height = %d", h)
	}
}
