// Package workload generates the paper's operation stream: k update
// transactions (each modifying l tuples of R1 in place) interleaved at
// random with q procedure accesses, where accesses exhibit the paper's
// locality-of-reference skew — a fraction Z of the procedures receives a
// fraction 1−Z of all references.
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind distinguishes the two operation types.
type Kind uint8

// Operation kinds.
const (
	Query Kind = iota
	Update
)

// Op is one workload operation. Updates carry no payload here; the
// simulator picks the l tuples to modify when the operation executes.
//
// Op is a comparable value type: scenario attributes are scalars, never
// slices, so histories and replay records can compare ops directly and
// ops serialize losslessly through the wire protocol's JSON. The one-byte
// fields lead so they share a word: an Op is 56 bytes (TestOpPacks), and
// a world holds hundreds of thousands of them.
type Op struct {
	Kind Kind
	// Adversarial marks an update whose footprint is chosen to hit the
	// densest i-lock region instead of being drawn uniformly.
	Adversarial bool
	// Batch dedupes a nested query's inner calls (see Nest).
	Batch bool
	// ProcID is the procedure accessed; meaningful for Query ops.
	ProcID int
	// Index is the op's position in the generated sequence, assigned
	// after the interleaving shuffle. It is the stable workload-order
	// token that the cache-efficacy ledger uses to name the update that
	// invalidated an entry ("invalidated by op #17"), independent of
	// which session executed it.
	Index int

	// Phase is the index of the scenario phase that generated the op;
	// zero for the polite (scenario-free) workload.
	Phase int
	// L overrides the per-update modified-tuple count for this op (the
	// bulk-load scenario); zero keeps the configured L.
	L int
	// Nest makes a query a nested procedure call: after the outer
	// access, the executor performs Nest inner accesses to procedures
	// derived deterministically from NestSeed via InnerProcs. Batch
	// dedupes the inner calls (set-oriented, decorrelated execution);
	// without it every inner call runs, duplicates included.
	Nest     int
	NestSeed int64
}

// Generator produces a deterministic operation stream for a seed.
type Generator struct {
	rng  *rand.Rand
	z    float64
	hot  []int
	cold []int
}

// ZMin bounds the locality skew away from its degenerate endpoints.
// Z = 0 would mean "zero procedures get all accesses" and Z = 1 "all
// procedures get none" — both meaningless — so ClampZ folds any
// requested skew into [ZMin, 1−ZMin].
const ZMin = 0.01

// ClampZ maps an arbitrary requested skew onto the valid open interval.
// NaN (no meaningful request) becomes the neutral 0.5; anything at or
// beyond an endpoint clamps to the nearest representable skew. The
// result always satisfies ZMin <= z <= 1−ZMin.
func ClampZ(z float64) float64 {
	if z != z { // NaN
		return 0.5
	}
	if z < ZMin {
		return ZMin
	}
	if z > 1-ZMin {
		return 1 - ZMin
	}
	return z
}

// New builds a generator over the given procedure ids with locality skew
// z: ⌈z·n⌉ randomly chosen "hot" procedures receive a fraction 1−z of
// accesses. Degenerate skews are folded into (0, 1) via ClampZ; an empty
// id slice has no sensible reading and panics.
func New(seed int64, z float64, procIDs []int) *Generator {
	if len(procIDs) == 0 {
		panic("workload: no procedures")
	}
	z = ClampZ(z)
	rng := rand.New(rand.NewSource(seed))
	ids := append([]int(nil), procIDs...)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nHot := int(z*float64(len(ids)) + 0.5)
	if nHot < 1 {
		nHot = 1
	}
	if nHot > len(ids) {
		nHot = len(ids)
	}
	return &Generator{
		rng:  rng,
		z:    z,
		hot:  ids[:nHot],
		cold: ids[nHot:],
	}
}

// PickProc draws a procedure id with the generator's locality skew.
func (g *Generator) PickProc() int {
	if len(g.cold) == 0 || g.rng.Float64() < 1-g.z {
		return g.hot[g.rng.Intn(len(g.hot))]
	}
	return g.cold[g.rng.Intn(len(g.cold))]
}

// Sequence returns a random interleaving of exactly q Query ops (each with
// a skewed procedure pick) and k Update ops.
func (g *Generator) Sequence(k, q int) []Op {
	if k < 0 || q < 0 {
		panic("workload: negative operation counts")
	}
	ops := make([]Op, 0, k+q)
	for i := 0; i < k; i++ {
		ops = append(ops, Op{Kind: Update})
	}
	for i := 0; i < q; i++ {
		ops = append(ops, Op{Kind: Query, ProcID: g.PickProc()})
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].Index = i
	}
	return ops
}

// PickDistinct draws n distinct values from [0, limit). It panics if
// n > limit.
func (g *Generator) PickDistinct(n, limit int) []int {
	if n > limit {
		panic(fmt.Sprintf("workload: cannot pick %d distinct from %d", n, limit))
	}
	// For small n relative to limit, rejection sampling is cheap.
	out := make([]int, 0, n)
	seen := make(map[int]struct{}, n)
	for len(out) < n {
		v := g.rng.Intn(limit)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Intn exposes the generator's random stream for auxiliary draws (new
// attribute values for updated tuples).
func (g *Generator) Intn(n int) int { return g.rng.Intn(n) }

// Float64 draws from [0, 1), for probabilistic branches such as choosing
// the relation an update transaction targets.
func (g *Generator) Float64() float64 { return g.rng.Float64() }

// HotSet returns the hot procedure ids (for tests).
func (g *Generator) HotSet() []int { return append([]int(nil), g.hot...) }

// Thinker draws deterministic exponentially distributed think times for
// one closed-loop client session: the wall-clock pause between an
// operation completing and the session submitting its next one. Each
// session owns its own Thinker (and RNG), so the draws of one session do
// not depend on how its neighbours are scheduled.
type Thinker struct {
	rng  *rand.Rand
	mean float64 // milliseconds; <= 0 disables thinking
}

// NewThinker builds a thinker with the given mean think time in
// milliseconds. A mean of zero (or less) yields zero think time.
func NewThinker(seed int64, meanMs float64) *Thinker {
	return &Thinker{rng: rand.New(rand.NewSource(seed)), mean: meanMs}
}

// Next draws the next think time.
func (t *Thinker) Next() time.Duration {
	if t.mean <= 0 {
		return 0
	}
	return time.Duration(t.rng.ExpFloat64() * t.mean * float64(time.Millisecond))
}

// Arrivals draws a deterministic open-loop arrival schedule for one
// session: a Poisson process at a fixed rate, yielding absolute
// submission offsets measured from the start of the run. Where the
// closed-loop Thinker paces the next submission off the previous
// completion (a slow server throttles its own offered load), an
// open-loop session submits at the scheduled instant regardless of how
// long the previous operation took — lateness accumulates as queueing
// delay instead of vanishing into reduced demand, the standard open-loop
// overload semantics. The schedule is a pure function of (seed, rate),
// so two runs over the same scenario and seed replay identical arrival
// instants no matter how the contended runs themselves interleave.
type Arrivals struct {
	rng   *rand.Rand
	gapMs float64 // mean inter-arrival gap in ms; <= 0 → every arrival at t=0
	at    time.Duration
}

// NewArrivals builds an arrival process submitting ratePerSec operations
// per second on average. A non-positive rate degenerates to "submit
// immediately" (every arrival at offset zero).
func NewArrivals(seed int64, ratePerSec float64) *Arrivals {
	a := &Arrivals{rng: rand.New(rand.NewSource(seed))}
	if ratePerSec > 0 {
		a.gapMs = 1000 / ratePerSec
	}
	return a
}

// Next returns the absolute offset from run start at which the next
// operation is due. Successive offsets are nondecreasing.
func (a *Arrivals) Next() time.Duration {
	if a.gapMs <= 0 {
		return a.at
	}
	a.at += time.Duration(a.rng.ExpFloat64() * a.gapMs * float64(time.Millisecond))
	return a.at
}
