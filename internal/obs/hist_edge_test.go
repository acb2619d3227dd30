package obs

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestHistogramQuantileEmpty: an empty histogram answers 0 for every
// quantile instead of panicking or reporting a bucket edge.
func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(nil)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	var b strings.Builder
	h.Render(&b)
	if !strings.Contains(b.String(), "no observations") {
		t.Fatalf("empty render: %q", b.String())
	}
}

// TestHistogramQuantileSingleSample: with one observation every quantile
// collapses to it (clamped to max, never a wider bucket edge).
func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	h.Observe(7)
	for _, q := range []float64{0.001, 0.5, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) = %v, want 7 (the only sample)", q, got)
		}
	}
}

// TestHistogramQuantileFull: q = 1.0 is the max, and tiny q still ranks
// at least the first observation.
func TestHistogramQuantileFull(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.7, 4.9} {
		h.Observe(v)
	}
	if got := h.Quantile(1); got != 4.9 {
		t.Fatalf("Quantile(1) = %v, want observed max 4.9", got)
	}
	// Rank clamps to >= 1: an absurdly small q reports the first bucket.
	if got := h.Quantile(1e-9); got != 1 {
		t.Fatalf("Quantile(1e-9) = %v, want first bucket edge 1", got)
	}
}

// TestHistogramQuantileAllOverflow: every observation above the last
// bound lands in the overflow bucket, whose reported edge is the observed
// max — quantiles must stay finite and ordered.
func TestHistogramQuantileAllOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for _, v := range []float64{10, 20, 30} {
		h.Observe(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 30 {
			t.Fatalf("overflow Quantile(%v) = %v, want max 30", q, got)
		}
	}
}

// TestHistogramQuantileMonotone: quantiles are non-decreasing in q and
// each is an upper bound for the exact value of its rank.
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(nil)
	vals := []float64{0.3, 0.9, 1.4, 3, 7, 7, 18, 44, 130, 820}
	for _, v := range vals {
		h.Observe(v)
	}
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1} {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v", q, got, prev)
		}
		prev = got
		exact := vals[int(q*float64(len(vals))+0.999)-1]
		if got < exact {
			t.Fatalf("Quantile(%v) = %v below exact rank value %v", q, got, exact)
		}
	}
}

// wallRatio is the wall ladder's widest step between consecutive edges.
func wallRatio(t *testing.T) float64 {
	var r float64
	for i := 1; i < len(wallBounds); i++ {
		r = math.Max(r, wallBounds[i]/wallBounds[i-1])
	}
	if r > 1.1 || wallBounds[0] != 1e3 || math.Abs(wallBounds[len(wallBounds)-1]-1e11) > 1 {
		t.Fatalf("wall ladder: ratio %v, edges %v..%v; want <= 1.1 over 1e3..1e11 ns",
			r, wallBounds[0], wallBounds[len(wallBounds)-1])
	}
	return r
}

// checkWallBound feeds 1e5 samples of each seeded distribution to a wall
// histogram and checks that every reported quantile sits between the
// exact ceil-rank value and that value times the ladder ratio (clamped
// to the observed max).
func checkWallBound(t *testing.T, seed int64, dists map[string]func(r *rand.Rand) float64) {
	t.Helper()
	ratio := wallRatio(t)
	for name, gen := range dists {
		r := rand.New(rand.NewSource(seed))
		h := NewWallHistogram()
		vals := make([]float64, 100000)
		for i := range vals {
			vals[i] = gen(r)
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		hi := vals[len(vals)-1]
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			exact := vals[int(math.Ceil(q*float64(len(vals))))-1]
			got := h.Quantile(q)
			if got < exact || got > math.Min(exact*ratio, hi) {
				t.Errorf("%s p%g: Quantile %v outside [%v, %v]", name, 100*q, got, exact, math.Min(exact*ratio, hi))
			}
		}
	}
}

// TestHistogramWallBound is the guarantee a bucket histogram states, on
// 1e5 seeded lognormal and 1e5 seeded bimodal wall-clock samples.
func TestHistogramWallBound(t *testing.T) {
	checkWallBound(t, 1988, map[string]func(r *rand.Rand) float64{
		// ~33 µs median spread over several decades.
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*1.2 + 10.4) },
		// 90% fast hits near 20 µs, 10% slow recomputes near 2 ms: the
		// shape that puts p90 on the mode boundary.
		"bimodal": func(r *rand.Rand) float64 {
			if r.Intn(10) == 0 {
				return 2e6 + r.Float64()*4e5
			}
			return 2e4 + r.Float64()*1e4
		},
	})
}

// TestHistogramExactQuantiles holds the same bound on uniform,
// exponential and a narrow-mode bimodal stream, p90 of the last sitting
// exactly on the 10% split between its modes.
func TestHistogramExactQuantiles(t *testing.T) {
	checkWallBound(t, 7, map[string]func(r *rand.Rand) float64{
		"uniform":     func(r *rand.Rand) float64 { return r.Float64() * 1e6 },
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() * 5e4 },
		"bimodal": func(r *rand.Rand) float64 {
			if r.Intn(10) == 0 {
				return 5e5 + r.Float64()*1e5
			}
			return 1e4 + r.Float64()*5e3
		},
	})
}

// TestHistogramMerge: a stream split over 8 histograms and merged gives
// exactly the counts, sum, extremes and quantiles of one histogram fed
// the whole stream.
func TestHistogramMerge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	whole, merged := NewWallHistogram(), NewWallHistogram()
	parts := make([]*Histogram, 8)
	for i := range parts {
		parts[i] = NewWallHistogram()
	}
	for i := 0; i < 100000; i++ {
		v := math.Exp(r.NormFloat64()*1.5 + 11)
		whole.Observe(v)
		parts[i%len(parts)].Observe(v)
	}
	for _, p := range parts {
		merged.Merge(p)
	}
	if !slices.Equal(merged.counts, whole.counts) {
		t.Fatal("merged bucket counts differ from the single histogram's")
	}
	// Summation order differs, so the sum (and mean) may differ in the
	// last ulps; everything else is exact.
	ms, ws := merged.Summary(), whole.Summary()
	if math.Abs(ms.Mean-ws.Mean) > 1e-9*ws.Mean {
		t.Fatalf("merged mean %v, whole %v", ms.Mean, ws.Mean)
	}
	ms.Mean = ws.Mean
	if ms != ws {
		t.Fatalf("merged summary %+v, whole %+v", ms, ws)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging across ladders did not panic")
		}
	}()
	merged.Merge(NewHistogram(nil))
}

// TestHistogramConcurrentObserve (run it under -race): 8 goroutines
// observe while a reader scrapes quantiles and merges, and the final
// count is exact.
func TestHistogramConcurrentObserve(t *testing.T) {
	const writers, each = 8, 5000
	h := NewWallHistogram()
	done := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scraped <- n
				return
			default:
				h.Quantile(0.99)
				NewWallHistogram().Merge(h)
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(1e3 + w*each + i))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if n := <-scraped; n == 0 {
		t.Fatal("reader never scraped")
	}
	if got := h.Count(); got != writers*each {
		t.Fatalf("count %d, want %d", got, writers*each)
	}
}
