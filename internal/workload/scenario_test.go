package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestCatalogNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalog() {
		name := s.Name()
		if seen[name] {
			t.Fatalf("duplicate scenario name %q", name)
		}
		seen[name] = true
		got, ok := ByName(name)
		if !ok || got.Name() != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Fatal("ByName resolved a bogus name")
	}
	if got := len(Names()); got != len(Catalog()) {
		t.Fatalf("Names() has %d entries, catalog %d", got, len(Catalog()))
	}
}

// stripIndex zeroes the position-dependent field so op streams can be
// compared across schedules whose earlier phases differ in length.
func stripIndex(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	for i := range out {
		out[i].Index = 0
	}
	return out
}

func phaseOps(ops []Op, phase int) []Op {
	var out []Op
	for _, op := range ops {
		if op.Phase == phase {
			out = append(out, op)
		}
	}
	return stripIndex(out)
}

// checkSchedule verifies the standing scenario invariants on one
// schedule and returns a description of the first violation.
func checkSchedule(sch *Schedule, seed int64, procs []int) error {
	ops := expand(sch.Stream(seed, procs))
	again := expand(sch.Stream(seed, procs))
	if !reflect.DeepEqual(ops, again) {
		return fmt.Errorf("ops not deterministic for seed %d", seed)
	}
	// Totals: generation must realize exactly the scheduled counts.
	wantK, wantQ := sch.TotalOps()
	var k, q int
	for i, op := range ops {
		if op.Index != i {
			return fmt.Errorf("op %d has Index %d", i, op.Index)
		}
		if op.Kind == Update {
			k++
		} else {
			q++
		}
	}
	if k != wantK || q != wantQ {
		return fmt.Errorf("generated k=%d q=%d, scheduled k=%d q=%d", k, q, wantK, wantQ)
	}
	// Phase contiguity: the stream visits phases in order; the
	// within-phase shuffle must not leak ops across a boundary.
	last := 0
	for i, op := range ops {
		if op.Phase < last {
			return fmt.Errorf("op %d in phase %d after phase %d — draw straddles a boundary", i, op.Phase, last)
		}
		last = op.Phase
	}
	// Boundary independence: resizing phase 0 must not perturb any
	// later phase's draws (each phase owns its seeded generator).
	if len(sch.Phases) > 1 && (sch.Phases[0].K > 0 || sch.Phases[0].Q > 0) {
		alt := *sch
		alt.Phases = append([]Phase(nil), sch.Phases...)
		alt.Phases[0].K = sch.Phases[0].K / 2
		alt.Phases[0].Q = sch.Phases[0].Q/2 + 1
		altOps := expand(alt.Stream(seed, procs))
		for pi := 1; pi < len(sch.Phases); pi++ {
			if !reflect.DeepEqual(phaseOps(ops, pi), phaseOps(altOps, pi)) {
				return fmt.Errorf("phase %d draws changed when phase 0 was resized", pi)
			}
		}
	}
	return nil
}

func TestCatalogSchedulesHoldInvariants(t *testing.T) {
	base := Base{K: 40, Q: 120, Z: 0.2, L: 5}
	procs := ids(12)
	for _, sc := range Catalog() {
		sch := BuildSchedule(sc, base)
		for seed := int64(1); seed <= 3; seed++ {
			if err := checkSchedule(sch, seed, procs); err != nil {
				t.Errorf("%s seed %d: %v\n  schedule: %s", sc.Name(), seed, err, sch.Describe())
			}
		}
	}
	// The polite schedule holds them too.
	if err := checkSchedule(BuildSchedule(nil, base), 1, procs); err != nil {
		t.Errorf("polite: %v", err)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	sch := BuildSchedule(HotKeyStorm{}, Base{K: 30, Q: 90, Z: 0.2, L: 5})
	a := expand(sch.Stream(1, ids(10)))
	b := expand(sch.Stream(2, ids(10)))
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 produced identical scenario streams")
	}
}

// TestScenarioCompositionProperty is the quick-style sweep: random
// stacks over random bases must hold every invariant. On violation the
// stack is shrunk to a minimal failing scenario before reporting.
func TestScenarioCompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	parts := []Scenario{
		FlashCrowd{}, HotKeyStorm{}, BulkLoad{},
		AdversarialInvalidation{}, SlowConsumers{}, NestedCalls{},
		NestedCalls{Batch: true},
		FlashCrowd{Spike: 10, Window: 0.2}, HotKeyStorm{Theta: 0.99, StormProc: 3},
		BulkLoad{Factor: 40, Window: 0.1},
	}
	for trial := 0; trial < 60; trial++ {
		base := Base{
			K: rng.Intn(60),
			Q: 1 + rng.Intn(200),
			Z: rng.Float64(), // may be degenerate after clamping — fine
			L: 1 + rng.Intn(20),
		}
		n := 1 + rng.Intn(4)
		stacked := make([]Scenario, 0, n)
		for i := 0; i < n; i++ {
			stacked = append(stacked, parts[rng.Intn(len(parts))])
		}
		sc := Stack("trial", stacked...)
		seed := int64(rng.Intn(1000))
		procs := ids(2 + rng.Intn(30))
		if err := check(sc, base, seed, procs); err != nil {
			min := shrink(sc.(stack), base, seed, procs)
			t.Fatalf("trial %d: %v\n  minimal failing scenario: %s\n  schedule: %s\n  base: %+v seed=%d procs=%d",
				trial, err, names(min.parts), BuildSchedule(min, base).Describe(), base, seed, len(procs))
		}
	}
}

func check(sc Scenario, base Base, seed int64, procs []int) error {
	return checkSchedule(BuildSchedule(sc, base), seed, procs)
}

// shrink removes stack parts one at a time while the failure persists,
// yielding a minimal failing composition for the report.
func shrink(sc stack, base Base, seed int64, procs []int) stack {
	for i := 0; i < len(sc.parts); {
		cand := stack{name: sc.name, parts: append(append([]Scenario(nil), sc.parts[:i]...), sc.parts[i+1:]...)}
		if check(cand, base, seed, procs) != nil {
			sc = cand
			i = 0
			continue
		}
		i++
	}
	return sc
}

func names(parts []Scenario) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += " + "
		}
		s += p.Name()
	}
	return s
}

func TestFlashCrowdConcentratesQueries(t *testing.T) {
	sch := BuildSchedule(FlashCrowd{}, Base{K: 20, Q: 1000, Z: 0.2, L: 5})
	if len(sch.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(sch.Phases))
	}
	crowd := sch.Phases[1]
	if crowd.Name != "crowd" {
		t.Fatalf("middle phase %q", crowd.Name)
	}
	total := sch.Phases[0].Q + crowd.Q + sch.Phases[2].Q
	if total != 1000 {
		t.Fatalf("query total %d, want 1000", total)
	}
	if frac := float64(crowd.Q) / float64(total); frac < 0.7 {
		t.Fatalf("crowd carries only %.2f of queries, want the bulk", frac)
	}
}

func TestHotKeyStormHitsStormProc(t *testing.T) {
	sch := BuildSchedule(HotKeyStorm{Theta: 0.95, StormProc: 4}, Base{K: 0, Q: 2000, Z: 0.2, L: 5})
	ops := expand(sch.Stream(5, ids(10)))
	stormHits, stormTotal := 0, 0
	for _, op := range ops {
		if op.Phase != 1 {
			continue
		}
		stormTotal++
		if op.ProcID == 4 {
			stormHits++
		}
	}
	if stormTotal == 0 {
		t.Fatal("no storm-phase queries")
	}
	if frac := float64(stormHits) / float64(stormTotal); frac < 0.9 {
		t.Fatalf("storm proc got %.2f of storm queries, want ≥0.9", frac)
	}
}

func TestBulkLoadOverridesL(t *testing.T) {
	sch := BuildSchedule(BulkLoad{Factor: 16}, Base{K: 100, Q: 10, Z: 0.2, L: 5})
	ops := expand(sch.Stream(1, ids(10)))
	burst := 0
	for _, op := range ops {
		if op.Kind != Update {
			continue
		}
		switch op.Phase {
		case 0:
			if op.L != 0 {
				t.Fatalf("steady update carries L=%d", op.L)
			}
		case 1:
			if op.L != 80 {
				t.Fatalf("burst update L=%d, want 80", op.L)
			}
			burst++
		}
	}
	if burst == 0 {
		t.Fatal("no burst updates generated")
	}
}

func TestAdversarialMarksUpdates(t *testing.T) {
	sch := BuildSchedule(AdversarialInvalidation{}, Base{K: 50, Q: 50, Z: 0.2, L: 5})
	for _, op := range expand(sch.Stream(1, ids(10))) {
		if op.Kind == Update && !op.Adversarial {
			t.Fatal("update not marked adversarial")
		}
		if op.Kind == Query && op.Adversarial {
			t.Fatal("query marked adversarial")
		}
	}
}

func TestInnerProcs(t *testing.T) {
	procs := ids(7)
	sch := BuildSchedule(NestedCalls{Depth: 5}, Base{K: 0, Q: 50, Z: 0.2, L: 5})
	ops := expand(sch.Stream(3, procs))
	for _, op := range ops {
		inner := InnerProcs(op, procs)
		if len(inner) != 5 {
			t.Fatalf("naive nest expanded to %d inner calls, want 5", len(inner))
		}
		if !reflect.DeepEqual(inner, InnerProcs(op, procs)) {
			t.Fatal("inner expansion not deterministic")
		}
		for _, id := range inner {
			if id < 0 || id >= 7 {
				t.Fatalf("inner proc %d out of range", id)
			}
		}
	}
	// Batched mode dedupes and sorts.
	bsch := BuildSchedule(NestedCalls{Depth: 5, Batch: true}, Base{K: 0, Q: 50, Z: 0.2, L: 5})
	for _, op := range expand(bsch.Stream(3, procs)) {
		inner := InnerProcs(op, procs)
		if len(inner) == 0 || len(inner) > 5 {
			t.Fatalf("batched nest expanded to %d inner calls", len(inner))
		}
		for i := 1; i < len(inner); i++ {
			if inner[i] <= inner[i-1] {
				t.Fatalf("batched inner calls not strictly sorted: %v", inner)
			}
		}
	}
	// Non-nested ops expand to nothing.
	if InnerProcs(Op{Kind: Query}, procs) != nil {
		t.Fatal("plain query expanded inner calls")
	}
	if InnerProcs(Op{Kind: Update, Nest: 3}, procs) != nil {
		t.Fatal("update expanded inner calls")
	}
}

func TestThinkScale(t *testing.T) {
	sch := BuildSchedule(SlowConsumers{Every: 4, Factor: 32}, Base{K: 1, Q: 1, Z: 0.2, L: 1})
	want := map[int]float64{0: 1, 1: 1, 2: 1, 3: 32, 4: 1, 7: 32, 11: 32}
	for s, w := range want {
		if got := sch.ThinkScale(s); got != w {
			t.Errorf("ThinkScale(%d) = %v, want %v", s, got, w)
		}
	}
	polite := BuildSchedule(nil, Base{K: 1, Q: 1, Z: 0.2, L: 1})
	if polite.ThinkScale(3) != 1 {
		t.Error("polite schedule scaled think time")
	}
	var nilSch *Schedule
	if nilSch.ThinkScale(3) != 1 {
		t.Error("nil schedule scaled think time")
	}
}

func TestStackOrderMatters(t *testing.T) {
	// storm-adversarial: the storm splits phases first, then the
	// adversarial modifier marks every phase including the storm.
	sch := BuildSchedule(Stack("x", HotKeyStorm{}, AdversarialInvalidation{}), Base{K: 40, Q: 40, Z: 0.2, L: 5})
	if len(sch.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(sch.Phases))
	}
	for i, ph := range sch.Phases {
		if !ph.Adversarial {
			t.Fatalf("phase %d not adversarial", i)
		}
	}
	if sch.Phases[1].Theta == 0 {
		t.Fatal("storm phase lost its theta")
	}
}
