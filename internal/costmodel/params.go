// Package costmodel implements the closed-form analytical cost model of
// Hanson, "Processing Queries Against Database Procedures: A Performance
// Analysis" (UCB/ERL M87/68, SIGMOD 1988).
//
// The model predicts the expected cost, in milliseconds, of one access to a
// database procedure under four processing strategies:
//
//   - Always Recompute: run the procedure's compiled plan on every access.
//   - Cache and Invalidate: serve the cached result while valid; recompute
//     and refresh on access after an invalidating update.
//   - Update Cache / AVM: keep the cached result current with non-shared
//     algebraic (differential) view maintenance.
//   - Update Cache / RVM: keep the cached result current with a shared Rete
//     discrimination network.
//
// Two procedure populations are modeled. In both, type P1 procedures are
// single-relation selections on R1. In Model 1 type P2 procedures are 2-way
// joins (R1 ⋈ R2); in Model 2 they are 3-way joins (R1 ⋈ R2 ⋈ R3). Updates
// modify tuples of R1 only.
//
// All formulas follow sections 4 and 6 of the paper; the page-access
// estimate y(n, m, k) follows Appendix A. Known typos in the scanned text
// and their resolutions are documented in DESIGN.md and on the relevant
// functions.
package costmodel

import "math"

// Params holds every input parameter of the cost model, mirroring the
// paper's Figure 2 ("Procedure query cost parameters and default values").
// Zero values are not meaningful; start from Default and override fields.
type Params struct {
	// N is the number of tuples in relation R1.
	N float64
	// S is the tuple width in bytes (the same for base and result tuples).
	S float64
	// B is the block (disk page) size in bytes.
	B float64
	// D is the width in bytes of one B+-tree index record; the internal
	// fanout of the index on R1 is ⌊B/D⌋.
	D float64

	// K is the number of update transactions run against R1.
	K float64
	// L is the number of R1 tuples modified in place by each update
	// transaction (equivalently: L deletes plus L inserts).
	L float64
	// Q is the number of procedure accesses (queries).
	Q float64

	// F is the selectivity of the restriction term C_f(R1) that appears in
	// both P1 and P2 procedures. A P1 procedure therefore holds F·N tuples.
	F float64
	// F2 is the selectivity of the restriction term C_f2(R2) in P2
	// procedures. The probability that an invalidation of a P2 procedure is
	// "false" (the cached value did not really change) is 1−F2.
	F2 float64
	// FR2 is the size of R2 as a fraction of N.
	FR2 float64
	// FR3 is the size of R3 as a fraction of N (Model 2 only).
	FR3 float64

	// C1 is the CPU cost in ms to screen one record against a predicate.
	C1 float64
	// C2 is the cost in ms of one disk page read or write.
	C2 float64
	// C3 is the cost in ms per tuple per transaction to maintain the A_net
	// and D_net delta sets in AVM.
	C3 float64
	// CInval is the cost in ms to record the invalidation of one cached
	// procedure value (0 for battery-backed memory; 2·C2 for the naive
	// read-flag-write scheme).
	CInval float64

	// N1 and N2 are the numbers of P1-type and P2-type procedures.
	N1 float64
	N2 float64

	// SF is the sharing factor: the fraction of P2 procedures whose
	// C_f(R1) restriction is identical to some P1 procedure's, so that a
	// shared (Rete) maintenance algorithm can reuse that subexpression.
	SF float64

	// Z is the locality-of-reference skew: a fraction Z of the procedures
	// receives a fraction 1−Z of all accesses (Z = 0.2 means "20% of the
	// procedures get 80% of the references"; Z = 0.5 is uniform access).
	Z float64
}

// Default returns the paper's default parameter values (Figure 2).
//
// The paper's table omits Z; we use Z = 0.2, the example value given in the
// text of section 4.2 ("if Z = 0.2 then 20% of the procedures are accessed
// 80% of the time"). Figures 9 and 13 override it to 0.05.
func Default() Params {
	return Params{
		N:      100_000,
		S:      100,
		B:      4_000,
		D:      20,
		K:      100,
		L:      25,
		Q:      100,
		F:      0.001,
		F2:     0.1,
		FR2:    0.1,
		FR3:    0.1,
		C1:     1,
		C2:     30,
		C3:     1,
		CInval: 0,
		N1:     100,
		N2:     100,
		SF:     0.5,
		Z:      0.2,
	}
}

// TuplesPerBlock returns ⌊B/S⌋, the blocking factor of base and result
// relations.
func (p Params) TuplesPerBlock() float64 {
	return math.Floor(p.B / p.S)
}

// Blocks returns b, the number of blocks occupied by R1.
//
// The paper's Figure 2 prints "b = N/S", a typo for b = N/(B/S): with the
// default N = 100,000, S = 100 and B = 4,000 the text's page counts (e.g.
// ⌈f·b⌉ pages per P1 procedure) require b = 2,500.
func (p Params) Blocks() float64 {
	return p.N / p.TuplesPerBlock()
}

// FStar returns f* = f·f2, the combined selectivity of the two restriction
// terms of a P2 procedure; a P2 procedure holds f*·N tuples.
func (p Params) FStar() float64 {
	return p.F * p.F2
}

// NumProcs returns n = N1 + N2, the total number of stored procedures.
func (p Params) NumProcs() float64 {
	return p.N1 + p.N2
}

// UpdatesPerQuery returns k/q, the expected number of update transactions
// between consecutive procedure accesses.
func (p Params) UpdatesPerQuery() float64 {
	return p.K / p.Q
}

// UpdateProbability returns P = k/(k+q), the probability that a given
// operation in the workload is an update transaction.
func (p Params) UpdateProbability() float64 {
	return p.K / (p.K + p.Q)
}

// WithUpdateProbability returns a copy of p whose K is adjusted so that
// P = k/(k+q) equals the given value, holding Q fixed. It panics if
// up is outside [0, 1); P = 1 implies an infinite update rate, which the
// model (cost per query) cannot express.
func (p Params) WithUpdateProbability(up float64) Params {
	if up < 0 || up >= 1 {
		panic("costmodel: update probability must be in [0, 1)")
	}
	p.K = p.Q * up / (1 - up)
	return p
}

// BTreeHeight returns H1, the number of index levels traversed by the
// B+-tree descent that locates the first of the f·N qualifying R1 tuples:
// ⌈log_⌊B/D⌋(f·N)⌉, and at least 1 (even a single-tuple result requires one
// root access).
func (p Params) BTreeHeight() float64 {
	fanout := math.Floor(p.B / p.D)
	fn := p.F * p.N
	if fn <= 1 || fanout <= 1 {
		return 1
	}
	return math.Max(1, math.Ceil(math.Log(fn)/math.Log(fanout)))
}

// ProcSize returns the expected size in pages of one stored procedure
// result: the weighted average of ⌈f·b⌉ (type P1) and ⌈f*·b⌉ (type P2).
func (p Params) ProcSize() float64 {
	n := p.NumProcs()
	if n == 0 {
		return 0
	}
	b := p.Blocks()
	return p.N1/n*math.Ceil(p.F*b) + p.N2/n*math.Ceil(p.FStar()*b)
}

// Validate reports whether the parameter set is usable by the model,
// returning a descriptive error otherwise. Every field must be finite: a
// NaN fails every comparison below, so it is refused first.
func (p Params) Validate() error {
	for _, v := range [...]float64{p.N, p.S, p.B, p.D, p.K, p.L, p.Q, p.F, p.F2, p.FR2, p.FR3,
		p.C1, p.C2, p.C3, p.CInval, p.N1, p.N2, p.SF, p.Z} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errParam("every parameter must be finite")
		}
	}
	switch {
	case p.N <= 0:
		return errParam("N must be positive")
	case p.S <= 0 || p.B <= 0 || p.S > p.B:
		return errParam("need 0 < S <= B")
	case p.D <= 0 || p.D > p.B:
		return errParam("need 0 < D <= B")
	case p.Q <= 0:
		return errParam("Q must be positive (cost is per query)")
	case p.K < 0 || p.L < 0:
		return errParam("K and L must be non-negative")
	case p.F < 0 || p.F > 1 || p.F2 < 0 || p.F2 > 1:
		return errParam("selectivities F, F2 must be in [0, 1]")
	case p.FR2 < 0 || p.FR3 < 0:
		return errParam("FR2 and FR3 must be non-negative")
	case p.C1 < 0 || p.C2 < 0 || p.C3 < 0 || p.CInval < 0:
		return errParam("cost constants must be non-negative")
	case p.N1 < 0 || p.N2 < 0 || p.N1+p.N2 == 0:
		return errParam("need N1, N2 >= 0 and N1+N2 > 0")
	case p.SF < 0 || p.SF > 1:
		return errParam("SF must be in [0, 1]")
	case p.Z <= 0 || p.Z >= 1:
		return errParam("Z must be in (0, 1)")
	}
	return nil
}

type errParam string

func (e errParam) Error() string { return "costmodel: invalid parameters: " + string(e) }
