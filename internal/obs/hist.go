package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// defaultBounds are the upper edges of the default histogram buckets, in
// simulated milliseconds: a 1-2-5 decade ladder wide enough for anything
// from a single predicate screen (1 ms) to a full recompute at paper scale
// (minutes). Values above the last bound land in an overflow bucket.
var defaultBounds = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
}

// wallBounds are the upper edges of the wall-clock ladder, in
// nanoseconds: 25 geometric buckets per decade from 1 µs to 100 s, so
// consecutive edges differ by 10^(1/25) ≈ 1.0965. A quantile read from
// it overstates the exact value by less than that ratio.
var wallBounds = func() []float64 {
	const perDecade, decades = 25, 8
	b := make([]float64, perDecade*decades+1)
	for i := range b {
		b[i] = 1e3 * math.Pow(10, float64(i)/perDecade)
	}
	return b
}()

// Quantiles are the quantiles a Summary reports and the /metrics
// latency gauges export.
var Quantiles = []float64{0.5, 0.9, 0.95, 0.99}

// Histogram is a bounded-bucket histogram: simulated milliseconds on the
// default 1-2-5 ladder, or wall-clock nanoseconds on the geometric ladder
// (NewWallHistogram). Memory is fixed at construction: one counter per
// bucket plus running count/sum/min/max, so per-op observation is
// O(log buckets) with no allocation. Observe, Merge and every read take
// the histogram's mutex, so a scrape may read while a session observes.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper edges, ascending; len(counts) = len(bounds)+1
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewWallHistogram builds a histogram of wall-clock nanoseconds on the
// geometric 1 µs–100 s ladder.
func NewWallHistogram() *Histogram { return NewHistogram(wallBounds) }

// NewHistogram builds a histogram with the given ascending upper bucket
// edges, or the default 1-2-5 ladder when bounds is nil.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultBounds
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be ascending")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Merge adds every observation of o into h, exactly: bucket counts,
// count and sum add, and the extremes widen. Both histograms must share
// one ladder.
func (h *Histogram) Merge(o *Histogram) {
	o.mu.Lock()
	counts := append([]int64(nil), o.counts...)
	count, sum, lo, hi := o.count, o.sum, o.min, o.max
	o.mu.Unlock()
	if len(counts) != len(h.counts) {
		panic("obs: merging histograms with different ladders")
	}
	h.mu.Lock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.count += count
	h.sum += sum
	h.min = math.Min(h.min, lo)
	h.max = math.Max(h.max, hi)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket holding the q-th observation, clamped to the
// observed max. It overstates the exact value by at most one bucket
// ratio (below 1.1 on the wall ladder, 2.5 on the 1-2-5 ladder).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(q)
}

// Summary is a point-in-time view of a histogram, embedded in engine
// results and benchmark artifacts.
type Summary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary snapshots the histogram; an empty one summarizes to zero.
func (h *Histogram) Summary() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.summary()
}

// summary is Summary with mu held.
func (h *Histogram) summary() Summary {
	if h.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.count, Mean: h.sum / float64(h.count), Min: h.min, Max: h.max,
		P50: h.quantile(0.5), P90: h.quantile(0.9), P95: h.quantile(0.95), P99: h.quantile(0.99),
	}
}

// quantile is Quantile with mu held.
func (h *Histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			var edge float64
			if i < len(h.bounds) {
				edge = h.bounds[i]
			} else {
				edge = h.max
			}
			return math.Min(edge, h.max)
		}
	}
	return h.max
}

// Render writes a fixed-width ASCII view of the non-empty buckets, one row
// per bucket with a proportional bar.
func (h *Histogram) Render(w io.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		fmt.Fprintln(w, "  (no observations)")
		return
	}
	var peak int64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	lo := 0.0
	for i, c := range h.counts {
		hi := math.Inf(1)
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		if c > 0 {
			bar := strings.Repeat("#", int(math.Ceil(40*float64(c)/float64(peak))))
			if math.IsInf(hi, 1) {
				fmt.Fprintf(w, "  %10.6g+ ms %8d %s\n", lo, c, bar)
			} else {
				fmt.Fprintf(w, "  %10.6g-%-6.6g ms %8d %s\n", lo, hi, c, bar)
			}
		}
		lo = hi
	}
	s := h.summary()
	fmt.Fprintf(w, "  n=%d mean=%.1f ms min=%.6g max=%.6g p50<=%.6g p95<=%.6g p99<=%.6g\n",
		s.Count, s.Mean, s.Min, s.Max, s.P50, s.P95, s.P99)
}
