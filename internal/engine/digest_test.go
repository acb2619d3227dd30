package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dbproc/internal/costmodel"
	"dbproc/internal/dbtest"
	"dbproc/internal/workload"
)

// referenceDigest is Digest's previous definition, kept as the reference
// the differential test compares against: the tuple images sorted, then
// SHA-256 over len ‖ bytes of each. Collision resistant, O(n log n), a
// copy of the tuple list and a reflective swapper per call.
func referenceDigest(tuples [][]byte) []byte {
	imgs := make([][]byte, len(tuples))
	copy(imgs, tuples)
	sort.Slice(imgs, func(i, j int) bool { return bytes.Compare(imgs[i], imgs[j]) < 0 })
	h := sha256.New()
	var n [8]byte
	for _, t := range imgs {
		l := len(t)
		for i := 0; i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write(t)
	}
	return h.Sum(nil)
}

// randomTuples draws a multiset shaped to stress the digest: widths on
// both sides of the 16-byte step, the empty tuple, the empty set, and a
// small alphabet so that equal tuples and shared prefixes are common.
func randomTuples(rng *rand.Rand) [][]byte {
	n := rng.Intn(7)
	tuples := make([][]byte, n)
	for i := range tuples {
		width := [...]int{0, 1, 7, 8, 15, 16, 17, 31, 32, 40, 100}[rng.Intn(11)]
		t := make([]byte, width)
		for j := range t {
			t[j] = byte(rng.Intn(3))
		}
		tuples[i] = t
	}
	return tuples
}

func cloneTuples(tuples [][]byte) [][]byte {
	out := make([][]byte, len(tuples))
	for i, t := range tuples {
		out[i] = bytes.Clone(t)
	}
	return out
}

// mutate returns a multiset derived from tuples by one of the edits a
// broken digest would miss. Some edits leave the multiset equal (a
// permutation, a swap of two equal tuples' bytes): the reference digest
// says which.
func mutate(rng *rand.Rand, tuples [][]byte) [][]byte {
	out := cloneTuples(tuples)
	n := len(out)
	switch op := rng.Intn(7); {
	case op == 0 || n == 0:
		// A fresh draw, usually different.
		return randomTuples(rng)
	case op == 1:
		rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	case op == 2:
		// One flipped byte (or one byte more, for an empty tuple).
		i := rng.Intn(n)
		if len(out[i]) == 0 {
			out[i] = []byte{0}
		} else {
			out[i][rng.Intn(len(out[i]))] ^= 1 << rng.Intn(8)
		}
	case op == 3:
		// Bytes moved across a tuple boundary: the concatenation stays
		// the same, the two tuples do not.
		i, j := rng.Intn(n), rng.Intn(n)
		if k := len(out[i]); i != j && k > 0 {
			cut := 1 + rng.Intn(k)
			out[j] = append(out[i][k-cut:k:k], out[j]...)
			out[i] = out[i][:k-cut]
		}
	case op == 4:
		// A tuple duplicated in place of another: {a, a} against {a, b}.
		out[rng.Intn(n)] = bytes.Clone(out[rng.Intn(n)])
	case op == 5:
		// One tuple more, or one fewer.
		if rng.Intn(2) == 0 {
			out = append(out, bytes.Clone(out[rng.Intn(n)]))
		} else {
			out = out[:n-1]
		}
	default:
		// Two tuples' contents exchanged: the same multiset.
		i, j := rng.Intn(n), rng.Intn(n)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestDigestMatchesReference: over seeded pairs of tuple multisets, the
// multiset hash calls two of them equal exactly when the sorted SHA-256
// reference does.
func TestDigestMatchesReference(t *testing.T) {
	pairs := 120_000
	if testing.Short() {
		pairs = 20_000
	}
	rng := rand.New(rand.NewSource(14))
	equal := 0
	for i := 0; i < pairs; i++ {
		a := randomTuples(rng)
		b := mutate(rng, a)
		want := bytes.Equal(referenceDigest(a), referenceDigest(b))
		if got := bytes.Equal(Digest(a), Digest(b)); got != want {
			t.Fatalf("pair %d: Digest equal = %v, reference equal = %v\na: %x\nb: %x", i, got, want, a, b)
		}
		if want {
			equal++
		}
	}
	if equal < pairs/10 || equal > pairs*9/10 {
		t.Fatalf("%d of %d pairs were equal multisets: the test exercises one side only", equal, pairs)
	}
	if d := Digest(nil); !bytes.Equal(d, Digest([][]byte{})) || bytes.Equal(d, Digest([][]byte{{}})) {
		t.Fatal("the empty set and the set of one empty tuple must differ, nil and empty must not")
	}
}

// TestDigestAllocations: one pass, no sort, no copy of the tuple list —
// the 24-byte result is the only allocation, whatever the result's size.
func TestDigestAllocations(t *testing.T) {
	tuples := make([][]byte, 100)
	for i := range tuples {
		tuples[i] = bytes.Repeat([]byte{byte(i)}, 100)
	}
	if n := testing.AllocsPerRun(100, func() { Digest(tuples) }); n > 1 {
		t.Fatalf("Digest of 100 tuples made %.0f allocations, want 1", n)
	}
}

// TestHistoryDigestReplaysTheFold: the digest a run folds at commit is
// the one HistoryDigest replays from the run's recorded history, for
// every strategy, Adaptive included, with one session and with four. A
// one-session run commits a deterministic history, so keeping no history
// must leave its digest unchanged too.
func TestHistoryDigestReplaysTheFold(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	type world struct {
		name     string
		strat    costmodel.Strategy
		adaptive bool
	}
	worlds := []world{{"adaptive", costmodel.CacheInvalidate, true}}
	for _, s := range allStrategies {
		worlds = append(worlds, world{s.String(), s, false})
	}
	for _, w := range worlds {
		for _, clients := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/clients=%d", w.name, clients), func(t *testing.T) {
				cfg := testConfig(w.strat, costmodel.Model2, 23, 12, 28)
				cfg.Adaptive = w.adaptive
				res := New(cfg, Options{Clients: clients, RecordHistory: true}).Run(context.Background())
				if len(res.History) != res.Ops || res.Ops != 40 {
					t.Fatalf("history holds %d entries for %d ops, want 40", len(res.History), res.Ops)
				}
				if got := HistoryDigest(res.History); got != res.HistoryDigest {
					t.Fatalf("replayed digest %s, folded at commit %s", got, res.HistoryDigest)
				}
				if clients > 1 {
					return
				}
				bare := New(cfg, Options{Clients: 1}).Run(context.Background())
				if len(bare.History) != 0 {
					t.Fatalf("a run without RecordHistory kept %d entries", len(bare.History))
				}
				if bare.HistoryDigest != res.HistoryDigest {
					t.Fatalf("digest without a recorded history %s, with %s", bare.HistoryDigest, res.HistoryDigest)
				}
			})
		}
	}
}

// foldHistory is a short recorded history with every field the digest
// covers set and distinct across entries.
func foldHistory(t *testing.T) []HistoryEntry {
	t.Helper()
	cfg := testConfig(costmodel.CacheInvalidate, costmodel.Model1, 31, 4, 8)
	h := New(cfg, Options{Clients: 1, RecordHistory: true}).Run(context.Background()).History
	for i := 1; i < len(h); i++ {
		if h[i].Op.Kind == workload.Query && h[i-1].Op.Kind == workload.Query && h[i].CostMs != h[i-1].CostMs {
			return h
		}
	}
	t.Fatal("the history has no two adjacent queries of different cost")
	return nil
}

// TestHistoryDigestIsOrderSensitive: the same committed ops in another
// order are another history. A commutative fold (a per-entry sum, say)
// would miss the swap.
func TestHistoryDigestIsOrderSensitive(t *testing.T) {
	h := foldHistory(t)
	want := HistoryDigest(h)
	for i := 1; i < len(h); i++ {
		sw := append([]HistoryEntry(nil), h...)
		sw[i-1], sw[i] = sw[i], sw[i-1]
		if HistoryDigest(sw) == want {
			t.Fatalf("swapping entries %d and %d left the digest at %s", i-1, i, want)
		}
	}
}

// TestHistoryDigestCoversEveryField: changing any one covered field of
// any one entry changes the digest — the simulated cost by a single ulp
// included, since the fold takes its bits, not a rounding of them — and
// folding an entry allocates nothing.
func TestHistoryDigestCoversEveryField(t *testing.T) {
	h := foldHistory(t)
	want := HistoryDigest(h)
	edits := map[string]func(*HistoryEntry){
		"seq":     func(he *HistoryEntry) { he.Seq++ },
		"session": func(he *HistoryEntry) { he.Session++ },
		"kind":    func(he *HistoryEntry) { he.Op.Kind ^= 1 },
		"proc":    func(he *HistoryEntry) { he.Op.ProcID++ },
		"index":   func(he *HistoryEntry) { he.Op.Index++ },
		"tuples":  func(he *HistoryEntry) { he.Tuples++ },
		"cost":    func(he *HistoryEntry) { he.CostMs = math.Nextafter(he.CostMs, math.Inf(1)) },
		"result": func(he *HistoryEntry) {
			he.Result = append([]byte(nil), he.Result...)
			if len(he.Result) == 0 {
				he.Result = []byte{0}
			} else {
				he.Result[len(he.Result)-1] ^= 1
			}
		},
	}
	for name, edit := range edits {
		for i := range h {
			ed := append([]HistoryEntry(nil), h...)
			edit(&ed[i])
			if HistoryDigest(ed) == want {
				t.Fatalf("editing the %s of entry %d left the digest at %s", name, i, want)
			}
		}
	}
	d := newHistoryDigest()
	if n := testing.AllocsPerRun(100, func() { d.add(&h[0]) }); n != 0 {
		t.Fatalf("folding one entry made %.0f allocations, want 0", n)
	}
}

func BenchmarkDigest(b *testing.B) {
	tuples := make([][]byte, 100)
	for i := range tuples {
		tuples[i] = bytes.Repeat([]byte{byte(i)}, 100)
	}
	for _, c := range []struct {
		name string
		fn   func([][]byte) []byte
	}{{"multiset", Digest}, {"reference", referenceDigest}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn(tuples)
			}
		})
	}
}
