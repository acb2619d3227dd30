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
// Op is the form an operation takes while it executes and in the records
// of it: a comparable value type whose scenario attributes are scalars,
// never slices, so histories and replay records compare ops directly and
// ops serialize losslessly through the wire protocol. A world does not
// hold its stream as Ops: a Stream keeps it in about 4 bytes per op and
// rebuilds each Op as it is dealt.
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
// id slice has no sensible reading and panics, as does an id outside a
// Stream's 31-bit ProcID.
func New(seed int64, z float64, procIDs []int) *Generator {
	if len(procIDs) == 0 {
		panic("workload: no procedures")
	}
	for _, id := range procIDs {
		if id < 0 || id >= updateBit {
			panic(fmt.Sprintf("workload: procedure id %d outside a Stream's 31 bits", id))
		}
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
// a skewed procedure pick) and k Update ops: q picks, then one shuffle of
// all k+q ops.
func (g *Generator) Sequence(k, q int) *Stream {
	if k < 0 || q < 0 {
		panic("workload: negative operation counts")
	}
	s := &Stream{code: make([]uint32, 0, k+q)}
	s.appendPhase(g, Profile{K: k, Q: q}, nil)
	return s
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
