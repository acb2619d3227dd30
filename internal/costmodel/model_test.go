package costmodel

import (
	"math"
	"testing"
)

// TestQueryCostsAgainstHandComputation pins the basic query costs to values
// computed by hand from the paper's formulas at the default parameters.
func TestQueryCostsAgainstHandComputation(t *testing.T) {
	p := Default()
	// C_queryP1 = C1·fN + C2·⌈f·b⌉ + C2·H1 = 100 + 30·3 + 30·1 = 220.
	if got := p.QueryP1Cost(); got != 220 {
		t.Errorf("QueryP1Cost = %v, want 220", got)
	}
	// C_queryP2 = C_queryP1 + C1·fN + C2·Y1, Y1 = Cardenas(250, 100).
	wantP2 := 220 + 100 + 30*Cardenas(250, 100)
	if got := p.QueryP2Cost(Model1); math.Abs(got-wantP2) > 1e-9 {
		t.Errorf("QueryP2Cost(model1) = %v, want %v", got, wantP2)
	}
	// Model 2 adds C2·Y6 + C1·fN with Y6 = Y1 (R3 sized like R2).
	wantP2m2 := wantP2 + 30*Cardenas(250, 100) + 100
	if got := p.QueryP2Cost(Model2); math.Abs(got-wantP2m2) > 1e-9 {
		t.Errorf("QueryP2Cost(model2) = %v, want %v", got, wantP2m2)
	}
	// Equal populations: plain average.
	want := (220 + wantP2) / 2
	if got := p.ProcessQueryCost(Model1); math.Abs(got-want) > 1e-9 {
		t.Errorf("ProcessQueryCost = %v, want %v", got, want)
	}
}

// TestZeroUpdateProbabilityCachingIsFree asserts the paper's observation
// about Figures 4/5: "the cost of Cache and Invalidate and both versions of
// Update Cache are equal when the update probability P is zero" — all three
// degrade to a single cached read.
func TestZeroUpdateProbabilityCachingIsFree(t *testing.T) {
	for _, m := range []Model{Model1, Model2} {
		p := Default().WithUpdateProbability(0)
		read := p.C2 * p.ProcSize()
		for _, s := range []Strategy{CacheInvalidate, UpdateCacheAVM, UpdateCacheRVM} {
			if got := Cost(m, s, p); math.Abs(got-read) > 1e-9 {
				t.Errorf("%v: %v cost at P=0 = %v, want read-only cost %v", m, s, got, read)
			}
		}
		// ...and all are far below Always Recompute.
		if rc := Cost(m, AlwaysRecompute, p); rc < 10*read {
			t.Errorf("%v: recompute %v unexpectedly close to read %v", m, rc, read)
		}
	}
}

// TestCacheInvalidatePlateau asserts the Figure 5 plateau: for large P the
// cached value is virtually never valid, so Cache and Invalidate costs
// slightly more than Always Recompute (the extra is the wasted write-back),
// and never more than Recompute plus the full write-back cost.
func TestCacheInvalidatePlateau(t *testing.T) {
	for _, m := range []Model{Model1, Model2} {
		p := Default().WithUpdateProbability(0.95)
		ci := CacheInvalidateCost(m, p)
		rc := RecomputeCost(m, p)
		if ci <= rc {
			t.Errorf("%v: C&I at P=0.95 = %v should exceed recompute %v", m, ci, rc)
		}
		if ceiling := rc + 2*p.C2*p.ProcSize(); ci > ceiling+1e-9 {
			t.Errorf("%v: C&I plateau %v exceeds recompute+writeback %v", m, ci, ceiling)
		}
	}
}

// TestUpdateCacheBlowsUpAtHighP asserts that Update Cache cost grows
// without bound as P -> 1 ("rises dramatically for large values of P")
// while Cache and Invalidate stays near its plateau.
func TestUpdateCacheBlowsUpAtHighP(t *testing.T) {
	p9 := Default().WithUpdateProbability(0.9)
	p99 := Default().WithUpdateProbability(0.99)
	for _, s := range []Strategy{UpdateCacheAVM, UpdateCacheRVM} {
		lo, hi := Cost(Model1, s, p9), Cost(Model1, s, p99)
		if hi < 5*lo {
			t.Errorf("%v: cost should explode from P=0.9 (%v) to P=0.99 (%v)", s, lo, hi)
		}
	}
	ci9, ci99 := CacheInvalidateCost(Model1, p9), CacheInvalidateCost(Model1, p99)
	if ci99 > 1.2*ci9 {
		t.Errorf("C&I should plateau: P=0.9 %v vs P=0.99 %v", ci9, ci99)
	}
}

// TestUpdateCacheWinsMidRange asserts Figure 5's main claim: with free
// invalidation there is a significant gap between Cache and Invalidate and
// Update Cache for 0 < P < 0.7, with Update Cache cheaper.
func TestUpdateCacheWinsMidRange(t *testing.T) {
	for _, up := range []float64{0.1, 0.3, 0.5, 0.6} {
		p := Default().WithUpdateProbability(up)
		avm := AVMCost(Model1, p)
		ci := CacheInvalidateCost(Model1, p)
		if avm >= ci {
			t.Errorf("P=%v: AVM %v should beat C&I %v", up, avm, ci)
		}
	}
}

// TestCinvalSensitivity asserts the Figure 4 vs Figure 5 contrast: with the
// naive two-I/O invalidation (C_inval = 2·C2 = 60ms) Cache and Invalidate
// is drastically worse than with free invalidation.
func TestCinvalSensitivity(t *testing.T) {
	p := Default().WithUpdateProbability(0.5)
	free := CacheInvalidateCost(Model1, p)
	p.CInval = 60
	costly := CacheInvalidateCost(Model1, p)
	if costly < 1.1*free {
		t.Errorf("C_inval=60ms cost %v should clearly exceed C_inval=0 cost %v", costly, free)
	}
	// The T3 term alone: (k/q)·n·P_inval·C_inval with P_inval ≈ 1-(0.999)^50.
	pinval := 1 - math.Pow(0.999, 50)
	wantT3 := 1 * 200 * pinval * 60
	if got := costly - free; math.Abs(got-wantT3) > 1e-6 {
		t.Errorf("invalidation overhead = %v, want T3 = %v", got, wantT3)
	}
}

// TestPaperSpeedupClaims asserts section 8's quantitative claim: "using
// f = 0.0001, with P = 0.1, Cache and Invalidate and Update Cache
// outperform Always Recompute by factors of approximately 5 and 7". The
// scan's constants are approximate, so we accept the right neighbourhood:
// C&I in [3, 7] and Update Cache in [5, 9].
func TestPaperSpeedupClaims(t *testing.T) {
	p := Default().WithUpdateProbability(0.1)
	p.F = 0.0001
	rc := RecomputeCost(Model1, p)
	ciFactor := rc / CacheInvalidateCost(Model1, p)
	ucFactor := rc / AVMCost(Model1, p)
	if ciFactor < 3 || ciFactor > 7 {
		t.Errorf("C&I speedup factor = %.2f, want ~5", ciFactor)
	}
	if ucFactor < 5 || ucFactor > 9 {
		t.Errorf("Update Cache speedup factor = %.2f, want ~7", ucFactor)
	}
	if ucFactor <= ciFactor {
		t.Errorf("Update Cache factor %.2f should exceed C&I factor %.2f", ucFactor, ciFactor)
	}
}

// TestModel1SharingRVMvsAVM asserts the Figure 11 result: in model 1, RVM
// only becomes comparable to AVM when almost every P2 procedure has a
// shared subexpression.
func TestModel1SharingRVMvsAVM(t *testing.T) {
	p := Default()
	for _, sf := range []float64{0, 0.25, 0.5, 0.75, 0.9} {
		p.SF = sf
		if RVMCost(Model1, p) <= AVMCost(Model1, p) {
			t.Errorf("SF=%v: RVM should not beat AVM in model 1", sf)
		}
	}
	p.SF = 1
	if RVMCost(Model1, p) > AVMCost(Model1, p) {
		t.Errorf("SF=1: RVM %v should be at least as cheap as AVM %v in model 1",
			RVMCost(Model1, p), AVMCost(Model1, p))
	}
}

// TestModel2SharingCrossover asserts the Figure 18 result: in model 2 the
// two Update Cache variants cost the same at SF ≈ 0.47, with RVM superior
// above and AVM superior below.
func TestModel2SharingCrossover(t *testing.T) {
	p := Default()
	diff := func(sf float64) float64 {
		p.SF = sf
		return AVMCost(Model2, p) - RVMCost(Model2, p)
	}
	if diff(0.2) >= 0 {
		t.Error("SF=0.2: AVM should beat RVM in model 2")
	}
	if diff(0.8) <= 0 {
		t.Error("SF=0.8: RVM should beat AVM in model 2")
	}
	// Bisect for the crossover.
	lo, hi := 0.2, 0.8
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if diff(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	if cross := (lo + hi) / 2; cross < 0.40 || cross > 0.55 {
		t.Errorf("model 2 AVM/RVM crossover at SF=%.3f, paper reports ~0.47", cross)
	}
}

// TestSharingFactorMonotonicity: increasing SF makes RVM cheaper and leaves
// AVM unchanged (section 8, point 1).
func TestSharingFactorMonotonicity(t *testing.T) {
	for _, m := range []Model{Model1, Model2} {
		p := Default()
		prev := math.Inf(1)
		avm0 := AVMCost(m, p)
		for _, sf := range LinSpace(0, 1, 11) {
			p.SF = sf
			rvm := RVMCost(m, p)
			if rvm > prev+1e-9 {
				t.Errorf("%v: RVM cost increased with SF at %v", m, sf)
			}
			prev = rvm
			if got := AVMCost(m, p); got != avm0 {
				t.Errorf("%v: AVM cost depends on SF (%v vs %v)", m, got, avm0)
			}
		}
	}
}

// TestLargeObjectsFavorUpdateCache asserts Figure 6's claim: for f = 0.01
// and low update probability, incrementally updating a large object beats
// invalidate-and-recompute by a wide margin.
func TestLargeObjectsFavorUpdateCache(t *testing.T) {
	p := Default().WithUpdateProbability(0.1)
	p.F = 0.01
	avm := AVMCost(Model1, p)
	ci := CacheInvalidateCost(Model1, p)
	if avm >= ci/1.5 {
		t.Errorf("large objects: AVM %v should clearly beat C&I %v", avm, ci)
	}
}

// TestSmallObjectsCacheInvalCompetitive asserts Figure 7's claim: for
// f = 0.0001, Cache and Invalidate is very competitive with Update Cache
// (within 2x over the whole sensible range of P) and safer at high P.
func TestSmallObjectsCacheInvalCompetitive(t *testing.T) {
	base := Default()
	base.F = 0.0001
	for _, up := range []float64{0.1, 0.3, 0.5} {
		p := base.WithUpdateProbability(up)
		ci := CacheInvalidateCost(Model1, p)
		uc := math.Min(AVMCost(Model1, p), RVMCost(Model1, p))
		if ci > 2*uc {
			t.Errorf("P=%v: C&I %v not within 2x of Update Cache %v", up, ci, uc)
		}
	}
	p := base.WithUpdateProbability(0.95)
	if ci, uc := CacheInvalidateCost(Model1, p), AVMCost(Model1, p); ci >= uc {
		t.Errorf("P=0.95 small objects: C&I %v should beat Update Cache %v", ci, uc)
	}
}

// TestHighLocalityHelpsCacheInvalidate asserts Figure 9's claim: lowering Z
// (more skew) reduces C&I cost but leaves Update Cache unchanged.
func TestHighLocalityHelpsCacheInvalidate(t *testing.T) {
	def := Default().WithUpdateProbability(0.3)
	skew := def
	skew.Z = 0.05
	if CacheInvalidateCost(Model1, skew) >= CacheInvalidateCost(Model1, def) {
		t.Error("higher locality should reduce C&I cost")
	}
	if AVMCost(Model1, skew) != AVMCost(Model1, def) {
		t.Error("locality must not affect Update Cache cost")
	}
	if RecomputeCost(Model1, skew) != RecomputeCost(Model1, def) {
		t.Error("locality must not affect Always Recompute cost")
	}
}

// TestManyObjectsSteepenUpdateCache asserts Figure 10's claim: multiplying
// the number of procedures steepens the Update Cache cost slope in P.
func TestManyObjectsSteepenUpdateCache(t *testing.T) {
	small := Default().WithUpdateProbability(0.5)
	big := small
	big.N1, big.N2 = 1000, 1000
	slope := func(p Params) float64 {
		lo := AVMCost(Model1, p.WithUpdateProbability(0.2))
		hi := AVMCost(Model1, p.WithUpdateProbability(0.6))
		return hi - lo
	}
	if slope(big) <= slope(small) {
		t.Error("more objects should steepen Update Cache cost growth")
	}
}

// TestSingleTupleObjects reproduces Figure 8's setup (N1=100, N2=0,
// f=1/N): Cache and Invalidate tracks Update Cache closely at low P and
// wins at high P.
func TestSingleTupleObjects(t *testing.T) {
	base := Default()
	base.N1, base.N2 = 100, 0
	base.F = 1 / base.N
	p := base.WithUpdateProbability(0.2)
	ci := CacheInvalidateCost(Model1, p)
	uc := AVMCost(Model1, p)
	if ci > 2*uc {
		t.Errorf("single-tuple objects at P=0.2: C&I %v vs UC %v should be close", ci, uc)
	}
	p = base.WithUpdateProbability(0.95)
	if ci, uc := CacheInvalidateCost(Model1, p), AVMCost(Model1, p); ci >= uc {
		t.Errorf("single-tuple objects at P=0.95: C&I %v should beat UC %v", ci, uc)
	}
}

// TestComponentsSumToTotals ties the exported component breakdowns to the
// totals.
func TestComponentsSumToTotals(t *testing.T) {
	p := Default()
	for _, m := range []Model{Model1, Model2} {
		if got, want := totalOf(p, AVMComponents(m, p)), AVMCost(m, p); got != want {
			t.Errorf("%v AVM components sum %v != total %v", m, got, want)
		}
		if got, want := totalOf(p, RVMComponents(m, p)), RVMCost(m, p); got != want {
			t.Errorf("%v RVM components sum %v != total %v", m, got, want)
		}
	}
}

// TestComponentValuesModel1 pins the section 4.3/4.4 component tables at
// the defaults to hand-computed values.
func TestComponentValuesModel1(t *testing.T) {
	p := Default()
	want := map[string]float64{
		"C_screenP1":  5,   // 100·1·2·0.001·25
		"C_screenP2":  5,   //
		"C_refreshP1": 300, // 100·2·30·y(100, 2.5, 0.05)=100·2·30·0.05
		"C_refreshP2": 30,  // 100·2·30·0.005
		"C_overhead":  10,  // 1·0.05·200
		"C_join":      150, // 100·30·0.05
		"C_read":      60,  // 30·2
	}
	for _, c := range AVMComponents(Model1, p) {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected AVM component %q", c.Name)
			continue
		}
		if math.Abs(c.Value-w) > 1e-9 {
			t.Errorf("AVM %s = %v, want %v", c.Name, c.Value, w)
		}
	}
	wantR := map[string]float64{
		"C_screenP1":      5,
		"C_screenP2-Rete": 2.5, // (1-SF)=0.5 of 5
		"C_refreshP1":     300,
		"C_refresh-α":     150, // 0.5·100·2·30·0.05
		"C_refreshP2":     30,
		"C_join-α":        150,
		"C_read":          60,
	}
	for _, c := range RVMComponents(Model1, p) {
		w, ok := wantR[c.Name]
		if !ok {
			t.Errorf("unexpected RVM component %q", c.Name)
			continue
		}
		if math.Abs(c.Value-w) > 1e-9 {
			t.Errorf("RVM %s = %v, want %v", c.Name, c.Value, w)
		}
	}
}

// TestModel2JoinCostsDiffer: the only formula difference between models for
// RVM is C_join-α -> C_join-β, and for AVM is the extra Y7 term.
func TestModel2JoinCostsDiffer(t *testing.T) {
	p := Default()
	avm1, avm2 := AVMCost(Model1, p), AVMCost(Model2, p)
	if avm2 <= avm1 {
		t.Errorf("model 2 AVM %v should cost more than model 1 %v (extra join)", avm2, avm1)
	}
	// At the defaults Y8 = Y5 (both are k<=1 cases), so RVM is unchanged.
	if rvm1, rvm2 := RVMCost(Model1, p), RVMCost(Model2, p); math.Abs(rvm1-rvm2) > 1e-9 {
		t.Errorf("RVM model 1 %v vs model 2 %v should coincide at defaults", rvm1, rvm2)
	}
}

// TestCostDispatch covers the Cost switch including the invalid strategy.
func TestCostDispatch(t *testing.T) {
	p := Default()
	for _, s := range Strategies {
		if got := Cost(Model1, s, p); math.IsNaN(got) || got < 0 {
			t.Errorf("Cost(%v) = %v", s, got)
		}
	}
	if got := Cost(Model1, Strategy(99), p); !math.IsNaN(got) {
		t.Errorf("invalid strategy should yield NaN, got %v", got)
	}
	all := AllCosts(Model1, p)
	for _, s := range Strategies {
		if all[s] != Cost(Model1, s, p) {
			t.Errorf("AllCosts[%v] mismatch", s)
		}
	}
}

func TestStringers(t *testing.T) {
	if Model1.String() != "model 1" || Model2.String() != "model 2" || Model(9).String() != "model ?" {
		t.Error("Model.String mismatch")
	}
	names := map[Strategy]string{
		AlwaysRecompute: "Always Recompute",
		CacheInvalidate: "Cache and Invalidate",
		UpdateCacheAVM:  "Update Cache (AVM)",
		UpdateCacheRVM:  "Update Cache (RVM)",
		Strategy(42):    "unknown strategy",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestNameVocabulary pins the short names procsim's -strategy flag and
// the wire protocol share: each strategy's Short parses back to it, the
// wire accepts exactly "1"/"model1" and "2"/"model2" for the models, and
// nothing else parses (procsim lower-cases its flag before parsing).
func TestNameVocabulary(t *testing.T) {
	for i, want := range []string{"recompute", "ci", "uc-avm", "uc-rvm"} {
		s := Strategies[i]
		if s.Short() != want {
			t.Errorf("%v.Short() = %q, want %q", s, s.Short(), want)
		}
		if got, ok := ParseStrategy(want); !ok || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", want, got, ok, s)
		}
	}
	for name, want := range map[string]Model{"1": Model1, "model1": Model1, "2": Model2, "model2": Model2} {
		if got, ok := ParseModel(name); !ok || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, bad := range []string{"", "CI", "Recompute", "cache-invalidate"} {
		if _, ok := ParseStrategy(bad); ok {
			t.Errorf("ParseStrategy(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "3", "model 1", "Model1"} {
		if _, ok := ParseModel(bad); ok {
			t.Errorf("ParseModel(%q) accepted", bad)
		}
	}
}
