package costmodel

import "math"

// Model selects the procedure-population model being analyzed.
type Model int

const (
	// Model1 makes P2 procedures two-way joins R1 ⋈ R2 (paper section 4).
	Model1 Model = 1
	// Model2 makes P2 procedures three-way joins R1 ⋈ R2 ⋈ R3 (section 6).
	Model2 Model = 2
)

// String returns "model 1" or "model 2".
func (m Model) String() string {
	switch m {
	case Model1:
		return "model 1"
	case Model2:
		return "model 2"
	default:
		return "model ?"
	}
}

// Strategy identifies one of the four procedure query-processing strategies
// compared by the paper.
type Strategy int

const (
	// AlwaysRecompute executes the procedure's compiled plan on every access.
	AlwaysRecompute Strategy = iota
	// CacheInvalidate serves a cached result while valid and recomputes it
	// on first access after an invalidating update (i-lock conflict).
	CacheInvalidate
	// UpdateCacheAVM keeps the cached result current using non-shared
	// algebraic (differential) view maintenance.
	UpdateCacheAVM
	// UpdateCacheRVM keeps the cached result current using the shared Rete
	// view maintenance network.
	UpdateCacheRVM

	// NumStrategies is the count of strategies, for iteration.
	NumStrategies = 4
)

// Strategies lists all four strategies in presentation order.
var Strategies = [NumStrategies]Strategy{
	AlwaysRecompute, CacheInvalidate, UpdateCacheAVM, UpdateCacheRVM,
}

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case AlwaysRecompute:
		return "Always Recompute"
	case CacheInvalidate:
		return "Cache and Invalidate"
	case UpdateCacheAVM:
		return "Update Cache (AVM)"
	case UpdateCacheRVM:
		return "Update Cache (RVM)"
	default:
		return "unknown strategy"
	}
}

// shortNames are the strategies' short names, indexed by Strategy.
var shortNames = [NumStrategies]string{"recompute", "ci", "uc-avm", "uc-rvm"}

// Short returns the strategy's short name — recompute, ci, uc-avm or
// uc-rvm — the vocabulary of procsim's -strategy flag, trace run labels
// and the wire protocol.
func (s Strategy) Short() string {
	if s < 0 || s >= NumStrategies {
		return s.String()
	}
	return shortNames[s]
}

// ParseStrategy resolves a short name (Short) to its strategy.
func ParseStrategy(name string) (Strategy, bool) {
	for _, s := range Strategies {
		if shortNames[s] == name {
			return s, true
		}
	}
	return 0, false
}

// ParseModel resolves a model's wire name: "1" or "model1", "2" or
// "model2".
func ParseModel(name string) (Model, bool) {
	switch name {
	case "1", "model1":
		return Model1, true
	case "2", "model2":
		return Model2, true
	}
	return 0, false
}

// QueryP1Cost returns C_queryP1, the cost to compute a type-P1 procedure
// from scratch: screen f·N tuples at C1 each, read ⌈f·b⌉ data pages and
// descend H1 index levels at C2 each.
func (p Params) QueryP1Cost() float64 {
	fn := p.F * p.N
	return p.C1*fn + p.C2*math.Ceil(p.F*p.Blocks()) + p.C2*p.BTreeHeight()
}

// QueryP2Cost returns the cost to compute a type-P2 procedure from scratch.
//
// Model 1 (C_queryP2): a B-tree index scan of R1 followed by a hash-index
// probe join into R2 touching Y1 = y(fR2·N, fR2·b, f·N) pages, with f·N
// further predicate screens.
//
// Model 2 (C_queryP2'): additionally joins the result to R3 through R3's
// hash index, touching Y6 = y(fR3·N, fR3·b, f·N) pages with another f·N
// screens. (The scan prints Y6's first argument as f_R·N; it must be
// f_R3·N.)
func (p Params) QueryP2Cost(m Model) float64 {
	fn := p.F * p.N
	b := p.Blocks()
	y1 := PagesTouched(p.FR2*p.N, p.FR2*b, fn)
	cost := p.QueryP1Cost() + p.C1*fn + p.C2*y1
	if m == Model2 {
		y6 := PagesTouched(p.FR3*p.N, p.FR3*b, fn)
		cost += p.C2*y6 + p.C1*fn
	}
	return cost
}

// ProcessQueryCost returns C_ProcessQuery, the expected cost to compute the
// value of one procedure drawn at random from the N1+N2 population.
func (p Params) ProcessQueryCost(m Model) float64 {
	n := p.NumProcs()
	if n == 0 {
		return 0
	}
	return p.N1/n*p.QueryP1Cost() + p.N2/n*p.QueryP2Cost(m)
}

// RecomputeCost returns TOT_Recompute, the expected cost per procedure
// access under Always Recompute: exactly one from-scratch computation.
func RecomputeCost(m Model, p Params) float64 {
	return p.ProcessQueryCost(m)
}

// CacheInvalidateDetail carries the intermediate quantities of the Cache
// and Invalidate analysis (section 4.2), useful for diagnostics and tests.
type CacheInvalidateDetail struct {
	// T1 is the cost paid when the cached value is invalid: recompute the
	// procedure and write the result back (read-modify-write of ProcSize
	// pages).
	T1 float64
	// T2 is the cost paid when the cached value is valid: read it.
	T2 float64
	// T3 is the per-query share of the cost of recording invalidations.
	T3 float64
	// PInval is the probability that one update transaction invalidates a
	// given procedure: 1 − (1−f)^(2l). (The scan prints the exponent as 2;
	// each update produces 2l old/new tuple values, each matching the
	// procedure's predicate with probability f.)
	PInval float64
	// IP is the probability that the cache is invalid when a procedure is
	// accessed, mixing frequently- and seldom-accessed procedures by the
	// locality parameter Z.
	IP float64
}

// CacheInvalidateCosts computes the section 4.2 analysis for model m.
func CacheInvalidateCosts(m Model, p Params) CacheInvalidateDetail {
	var d CacheInvalidateDetail
	d.T1 = p.ProcessQueryCost(m) + 2*p.C2*p.ProcSize()
	d.T2 = p.C2 * p.ProcSize()

	d.PInval = 1 - powOneMinus(p.F, 2*p.L)
	d.T3 = p.UpdatesPerQuery() * p.NumProcs() * d.PInval * p.CInval

	// Expected number of update transactions between accesses to one
	// frequently-accessed (X) and one seldom-accessed (Y) procedure.
	n := p.NumProcs()
	kq := p.UpdatesPerQuery()
	x := n * p.Z / (1 - p.Z) * kq
	y := n * (1 - p.Z) / p.Z * kq
	z1 := 1 - powOneMinus(p.F, x*2*p.L)
	z2 := 1 - powOneMinus(p.F, y*2*p.L)
	d.IP = (1-p.Z)*z1 + p.Z*z2
	return d
}

// CacheInvalidateCost returns TOT_CacheInval, the expected cost per access
// under Cache and Invalidate: IP·T1 + (1−IP)·T2 + T3.
func CacheInvalidateCost(m Model, p Params) float64 {
	d := CacheInvalidateCosts(m, p)
	return d.IP*d.T1 + (1-d.IP)*d.T2 + d.T3
}

// powOneMinus returns (1−f)^e computed stably for tiny f and huge e.
func powOneMinus(f, e float64) float64 {
	if f >= 1 {
		return 0
	}
	return math.Exp(e * math.Log1p(-f))
}

// Component is one named term of an Update Cache cost formula.
type Component struct {
	// Name is the paper's symbol for the term, e.g. "C_refreshP1".
	Name string
	// PerUpdate reports whether the term is paid once per update
	// transaction (true) or once per procedure access (false). Per-update
	// terms are multiplied by k/q when forming the per-access total.
	PerUpdate bool
	// Value is the term's cost in milliseconds.
	Value float64
}

// avmShared returns the component terms common to AVM in both models:
// screening, P1 refresh, P2 refresh, delta-set overhead and result read.
func avmShared(p Params) (screenP1, screenP2, refreshP1, refreshP2, overhead, read float64) {
	b := p.Blocks()
	twoFL := 2 * p.F * p.L
	screenP1 = p.N1 * p.C1 * twoFL
	screenP2 = p.N2 * p.C1 * twoFL
	y3 := PagesTouched(p.F*p.N, p.F*b, twoFL)
	refreshP1 = p.N1 * 2 * p.C2 * y3
	fs := p.FStar()
	y4 := PagesTouched(fs*p.N, fs*b, 2*fs*p.L)
	refreshP2 = p.N2 * 2 * p.C2 * y4
	overhead = p.C3 * twoFL * p.NumProcs()
	read = p.C2 * p.ProcSize()
	return
}

// AVMComponents returns the cost components of Update Cache with
// non-shared algebraic view maintenance (section 4.3 table; section 6.3
// replaces C_join with C_join'). Refreshes are read-modify-write, so they
// cost 2·C2 per page (consistent with the paper's explicit
// C_refresh-α = N2(1−SF)·2·C2·Y3 and C_WriteCache = 2·C2·ProcSize).
func AVMComponents(m Model, p Params) []Component {
	screenP1, screenP2, refreshP1, refreshP2, overhead, read := avmShared(p)
	b := p.Blocks()
	twoFL := 2 * p.F * p.L
	y2 := PagesTouched(p.FR2*p.N, p.FR2*b, twoFL)
	join := p.N2 * p.C2 * y2
	joinName := "C_join"
	if m == Model2 {
		y7 := PagesTouched(p.FR3*p.N, p.FR3*b, twoFL)
		join = p.N2 * p.C2 * (y2 + y7)
		joinName = "C_join'"
	}
	return []Component{
		{"C_screenP1", true, screenP1},
		{"C_screenP2", true, screenP2},
		{"C_refreshP1", true, refreshP1},
		{"C_refreshP2", true, refreshP2},
		{"C_overhead", true, overhead},
		{joinName, true, join},
		{"C_read", false, read},
	}
}

// RVMComponents returns the cost components of Update Cache with shared
// Rete view maintenance (section 4.4 table; section 6.4 replaces C_join-α
// with C_join-β). A fraction SF of P2 procedures reuse a P1 procedure's
// C_f(R1) α-memory, so screening and left-α refresh are paid only for the
// remaining 1−SF.
func RVMComponents(m Model, p Params) []Component {
	screenP1, _, refreshP1, refreshP2, _, read := avmShared(p)
	b := p.Blocks()
	twoFL := 2 * p.F * p.L
	unshared := 1 - p.SF

	screenP2 := p.N2 * unshared * p.C1 * twoFL
	y3 := PagesTouched(p.F*p.N, p.F*b, twoFL)
	refreshAlpha := p.N2 * unshared * 2 * p.C2 * y3

	var join float64
	var joinName string
	if m == Model1 {
		// Probe the right α-memory (R2 tuples passing C_f2): f** = f2·fR2.
		fss := p.F2 * p.FR2
		y5 := PagesTouched(fss*p.N, fss*b, twoFL)
		join = p.N2 * p.C2 * y5
		joinName = "C_join-α"
	} else {
		// Probe the right β-memory (R2 ⋈ R3 tuples passing C_f2):
		// f_R3** = f2·fR3.
		fss := p.F2 * p.FR3
		y8 := PagesTouched(fss*p.N, fss*b, twoFL)
		join = p.N2 * p.C2 * y8
		joinName = "C_join-β"
	}
	return []Component{
		{"C_screenP1", true, screenP1},
		{"C_screenP2-Rete", true, screenP2},
		{"C_refreshP1", true, refreshP1},
		{"C_refresh-α", true, refreshAlpha},
		{"C_refreshP2", true, refreshP2},
		{joinName, true, join},
		{"C_read", false, read},
	}
}

// totalOf folds a component list into a per-access cost: per-access terms
// plus k/q times the per-update terms.
func totalOf(p Params, comps []Component) float64 {
	kq := p.UpdatesPerQuery()
	var total float64
	for _, c := range comps {
		if c.PerUpdate {
			total += kq * c.Value
		} else {
			total += c.Value
		}
	}
	return total
}

// AVMCost returns TOT_non-shared, the expected cost per procedure access
// under Update Cache with algebraic view maintenance.
func AVMCost(m Model, p Params) float64 {
	return totalOf(p, AVMComponents(m, p))
}

// RVMCost returns TOT_shared, the expected cost per procedure access under
// Update Cache with Rete view maintenance.
func RVMCost(m Model, p Params) float64 {
	return totalOf(p, RVMComponents(m, p))
}

// Cost dispatches to the per-strategy cost function.
func Cost(m Model, s Strategy, p Params) float64 {
	switch s {
	case AlwaysRecompute:
		return RecomputeCost(m, p)
	case CacheInvalidate:
		return CacheInvalidateCost(m, p)
	case UpdateCacheAVM:
		return AVMCost(m, p)
	case UpdateCacheRVM:
		return RVMCost(m, p)
	default:
		return math.NaN()
	}
}

// AllCosts returns the per-access cost of every strategy, indexed by
// Strategy.
func AllCosts(m Model, p Params) [NumStrategies]float64 {
	var out [NumStrategies]float64
	for _, s := range Strategies {
		out[s] = Cost(m, s, p)
	}
	return out
}
