// Hostile-workload scenarios. The paper only ever measures the polite
// workload — uniform k/l/q draws with 80/20 locality — but a system that
// must survive real traffic needs the opposite: flash crowds, hot-key
// storms, bulk-load bursts, adversarial invalidation, slow consumers,
// and nested procedure calls. A Scenario rewrites a Schedule — a list of
// phases, each a complete workload Profile — and the Schedule generates
// the operation stream deterministically from (scenario, seed).
//
// Two rules keep scenario runs replayable:
//
//  1. Each phase draws from its own Generator, seeded by mixing the run
//     seed with the phase index. No draw ever straddles a phase
//     boundary: changing phase P's length cannot perturb phase P+1.
//  2. Everything an op needs at execution time rides on the Op that
//     Stream.At rebuilds (comparable scalars only), so the engine can
//     deal ops to any number of sessions without consulting shared
//     scenario state.
package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Profile is the complete set of workload knobs for one phase.
type Profile struct {
	// K and Q are the update- and query-op counts of the phase.
	K, Q int
	// Z is the locality skew for the phase's procedure picks.
	Z float64
	// Theta, when positive, is the probability that a query bypasses
	// the Z-skew and hits StormProc directly — the hot-key storm. At
	// Theta→1 effectively every access lands on one procedure.
	Theta     float64
	StormProc int
	// L overrides the tuples-modified-per-update count (bulk load);
	// zero keeps the configured default.
	L int
	// Adversarial marks the phase's updates as densest-band seekers.
	Adversarial bool
	// Nest and Batch configure nested procedure calls on the phase's
	// queries (see Op.Nest / Op.Batch).
	Nest  int
	Batch bool
}

// Phase is a named slice of the simulated timeline with its own Profile.
type Phase struct {
	Name string
	Profile
}

// Schedule is the fully resolved plan a Scenario produces: an ordered
// phase list plus session-level modifiers that are not per-op.
type Schedule struct {
	// Scenario is the name of the scenario that built the schedule.
	Scenario string
	Phases   []Phase
	// SlowEvery/SlowFactor mark every SlowEvery-th session (1-based:
	// sessions s with s%SlowEvery == SlowEvery−1) as a slow consumer
	// whose mean think time is multiplied by SlowFactor.
	SlowEvery  int
	SlowFactor float64
	// BaseL is the configured default tuples-per-update, recorded so
	// scenarios can express bursts as multiples of it.
	BaseL int
}

// Base carries the polite-workload parameters a Schedule starts from.
type Base struct {
	K, Q int
	Z    float64
	L    int
}

// Scenario rewrites a Schedule in place. Scenarios compose: a
// phase-splitting scenario (flash crowd, storm, bulk load) carves the
// final phase into sub-phases, while a modifier scenario (adversarial
// invalidation, slow consumers, nested calls) rewrites every phase, so
// stacking order reads left to right.
type Scenario interface {
	Name() string
	Apply(*Schedule)
}

// BuildSchedule resolves a scenario against base parameters. A nil
// scenario yields the polite single-phase schedule.
func BuildSchedule(s Scenario, b Base) *Schedule {
	sch := &Schedule{
		Phases: []Phase{{Name: "steady", Profile: Profile{K: b.K, Q: b.Q, Z: ClampZ(b.Z)}}},
		BaseL:  b.L,
	}
	if s != nil {
		sch.Scenario = s.Name()
		s.Apply(sch)
	}
	return sch
}

// splitPhase carves the schedule's final phase into len(fracs) pieces
// whose K/Q counts are proportional to fracs (which must sum to ~1).
// Each piece inherits the parent profile; callers then specialise the
// pieces. Rounding slack lands on the last piece so totals are exact.
func (s *Schedule) splitPhase(names []string, fracs []float64) []*Phase {
	last := s.Phases[len(s.Phases)-1]
	s.Phases = s.Phases[:len(s.Phases)-1]
	start := len(s.Phases)
	k, q := 0, 0
	for i := range fracs {
		p := Phase{Name: names[i], Profile: last.Profile}
		if i == len(fracs)-1 {
			p.K, p.Q = last.K-k, last.Q-q
		} else {
			p.K = int(float64(last.K)*fracs[i] + 0.5)
			p.Q = int(float64(last.Q)*fracs[i] + 0.5)
			k += p.K
			q += p.Q
		}
		s.Phases = append(s.Phases, p)
	}
	out := make([]*Phase, len(fracs))
	for i := range out {
		out[i] = &s.Phases[start+i]
	}
	return out
}

// FlashCrowd spikes the query rate: a pre phase, then a crowd window
// holding the given fraction of the timeline but Spike× the query
// density, then a post phase. With Spike=100 and Window=0.05 the crowd
// window carries ~84% of all queries in 5% of the timeline.
type FlashCrowd struct {
	Spike  float64 // query-density multiplier inside the window
	Window float64 // fraction of the timeline the crowd occupies
}

// Name implements Scenario.
func (f FlashCrowd) Name() string { return "flash-crowd" }

// Apply implements Scenario.
func (f FlashCrowd) Apply(s *Schedule) {
	spike, win := f.Spike, f.Window
	if spike <= 1 {
		spike = 100
	}
	if win <= 0 || win >= 1 {
		win = 0.05
	}
	// Queries redistribute by density: the window gets weight spike·win
	// of the total, the calm remainder 1−win shared evenly pre/post.
	wCrowd := spike * win / (spike*win + (1 - win))
	wCalm := (1 - wCrowd) / 2
	ph := s.splitPhase(
		[]string{"pre", "crowd", "post"},
		[]float64{(1 - win) / 2, win, (1 - win) / 2},
	)
	total := ph[0].Q + ph[1].Q + ph[2].Q
	ph[0].Q = int(float64(total)*wCalm + 0.5)
	ph[1].Q = int(float64(total)*wCrowd + 0.5)
	ph[2].Q = total - ph[0].Q - ph[1].Q
}

// HotKeyStorm concentrates queries on a single procedure: a calm phase,
// then a storm where each query hits StormProc with probability Theta.
type HotKeyStorm struct {
	Theta     float64 // concentration inside the storm; default 0.95
	StormProc int     // index into the procedure id list
	Window    float64 // fraction of the timeline under storm; default 0.5
}

// Name implements Scenario.
func (h HotKeyStorm) Name() string { return "hot-key-storm" }

// Apply implements Scenario.
func (h HotKeyStorm) Apply(s *Schedule) {
	theta, win := h.Theta, h.Window
	if theta <= 0 || theta > 1 {
		theta = 0.95
	}
	if win <= 0 || win >= 1 {
		win = 0.5
	}
	ph := s.splitPhase([]string{"calm", "storm"}, []float64{1 - win, win})
	ph[1].Theta = theta
	ph[1].StormProc = h.StormProc
}

// BulkLoad turns the tail of the timeline into a burst of huge updates:
// each burst update modifies Factor× the base L tuples.
type BulkLoad struct {
	Factor int     // L multiplier in the burst; default 16
	Window float64 // fraction of the timeline under burst; default 0.25
}

// Name implements Scenario.
func (b BulkLoad) Name() string { return "bulk-load" }

// Apply implements Scenario.
func (b BulkLoad) Apply(s *Schedule) {
	factor, win := b.Factor, b.Window
	if factor <= 1 {
		factor = 16
	}
	if win <= 0 || win >= 1 {
		win = 0.25
	}
	ph := s.splitPhase([]string{"steady", "burst"}, []float64{1 - win, win})
	ph[1].L = s.BaseL * factor
	if ph[1].L < 1 {
		ph[1].L = factor
	}
}

// AdversarialInvalidation marks every update as a densest-band seeker:
// the executor aims its footprint at the key range covered by the most
// procedure interval locks, maximizing invalidations per update.
type AdversarialInvalidation struct{}

// Name implements Scenario.
func (AdversarialInvalidation) Name() string { return "adversarial-inval" }

// Apply implements Scenario.
func (AdversarialInvalidation) Apply(s *Schedule) {
	for i := range s.Phases {
		s.Phases[i].Adversarial = true
	}
}

// SlowConsumers marks every Every-th session as a think-time outlier
// with Factor× the mean think time — the stragglers that stretch the
// closed-loop tail.
type SlowConsumers struct {
	Every  int     // default 4
	Factor float64 // default 32
}

// Name implements Scenario.
func (SlowConsumers) Name() string { return "slow-consumers" }

// Apply implements Scenario.
func (c SlowConsumers) Apply(s *Schedule) {
	every, factor := c.Every, c.Factor
	if every < 2 {
		every = 4
	}
	if factor <= 1 {
		factor = 32
	}
	s.SlowEvery = every
	s.SlowFactor = factor
}

// NestedCalls makes every query a nested procedure call with Depth
// inner accesses; Batch dedupes the inner calls (the decorrelated,
// set-oriented execution of Guravannavar's rewriting).
type NestedCalls struct {
	Depth int // default 3
	Batch bool
}

// Name implements Scenario.
func (n NestedCalls) Name() string {
	if n.Batch {
		return "nested-batched"
	}
	return "nested-naive"
}

// Apply implements Scenario.
func (n NestedCalls) Apply(s *Schedule) {
	depth := n.Depth
	if depth < 1 {
		depth = 3
	}
	for i := range s.Phases {
		s.Phases[i].Nest = depth
		s.Phases[i].Batch = n.Batch
	}
}

// stack composes scenarios left to right under a single name.
type stack struct {
	name  string
	parts []Scenario
}

// Stack composes scenarios: each part's Apply runs in order against the
// same schedule, so phase-splitters should come before modifiers.
func Stack(name string, parts ...Scenario) Scenario { return stack{name: name, parts: parts} }

func (s stack) Name() string { return s.name }

func (s stack) Apply(sch *Schedule) {
	for _, p := range s.parts {
		p.Apply(sch)
	}
}

// Catalog returns the named hostile scenarios the bench sweeps, in
// canonical order.
func Catalog() []Scenario {
	return []Scenario{
		FlashCrowd{},
		HotKeyStorm{},
		BulkLoad{},
		AdversarialInvalidation{},
		SlowConsumers{},
		NestedCalls{},
		NestedCalls{Batch: true},
		Stack("storm-adversarial", HotKeyStorm{}, AdversarialInvalidation{}),
	}
}

// ByName resolves a catalog scenario by its Name.
func ByName(name string) (Scenario, bool) {
	for _, s := range Catalog() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// Names returns the catalog scenario names in canonical order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, s := range cat {
		out[i] = s.Name()
	}
	return out
}

// splitmix64 is the seed mixer: cheap, stateless, and good enough to
// decorrelate per-phase and per-op derived streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func phaseSeed(seed int64, phase int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(phase)+0x5ca1ab1e)))
}

// Stream generates the schedule's full operation stream. Each phase owns
// a Generator seeded from (seed, phase index): draws are deterministic
// per phase and never straddle a boundary. Ops are shuffled within their
// phase only — a flash crowd stays a contiguous window — and Index counts
// over the concatenated stream.
func (s *Schedule) Stream(seed int64, procIDs []int) *Stream {
	n, nest := 0, 0
	for _, ph := range s.Phases {
		n += ph.K + ph.Q
		if ph.Nest > 0 {
			nest += ph.K + ph.Q
		}
	}
	st := &Stream{code: make([]uint32, 0, n)}
	if nest > 0 {
		st.nest = make([]uint32, 0, nest)
	}
	for pi, ph := range s.Phases {
		st.appendPhase(New(phaseSeed(seed, pi), ph.Z, procIDs), ph.Profile, procIDs)
	}
	return st
}

// ThinkScale returns the think-time multiplier for a session index —
// SlowFactor for slow-consumer sessions, 1 otherwise.
func (s *Schedule) ThinkScale(session int) float64 {
	if s == nil || s.SlowEvery < 2 || s.SlowFactor <= 1 {
		return 1
	}
	if session%s.SlowEvery == s.SlowEvery-1 {
		return s.SlowFactor
	}
	return 1
}

// TotalOps returns the scheduled op count (for sizing checks).
func (s *Schedule) TotalOps() (k, q int) {
	for _, ph := range s.Phases {
		k += ph.K
		q += ph.Q
	}
	return k, q
}

// InnerProcs derives the inner procedure accesses of a nested query,
// deterministically from the op itself — no shared state, so any
// session can expand the op identically. Batch mode dedupes and sorts
// (the decorrelated set-oriented plan); naive mode keeps every call in
// draw order, duplicates included.
func InnerProcs(op Op, procIDs []int) []int {
	if op.Kind != Query || op.Nest <= 0 || len(procIDs) == 0 {
		return nil
	}
	out := make([]int, 0, op.Nest)
	h := splitmix64(uint64(op.NestSeed) ^ splitmix64(uint64(op.ProcID)+0x0ddba11))
	for i := 0; i < op.Nest; i++ {
		h = splitmix64(h)
		out = append(out, procIDs[h%uint64(len(procIDs))])
	}
	if op.Batch {
		sort.Ints(out)
		j := 0
		for i, v := range out {
			if i == 0 || v != out[j-1] {
				out[j] = v
				j++
			}
		}
		out = out[:j]
	}
	return out
}

// Describe renders a one-line summary of the schedule for logs/tests.
func (s *Schedule) Describe() string {
	var b strings.Builder
	if s.Scenario != "" {
		fmt.Fprintf(&b, "%s: ", s.Scenario)
	}
	for i, ph := range s.Phases {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s k=%d q=%d z=%.2f", ph.Name, ph.K, ph.Q, ph.Z)
		if ph.Theta > 0 {
			fmt.Fprintf(&b, " θ=%.2f→p%d", ph.Theta, ph.StormProc)
		}
		if ph.L > 0 {
			fmt.Fprintf(&b, " l=%d", ph.L)
		}
		if ph.Adversarial {
			b.WriteString(" adversarial")
		}
		if ph.Nest > 0 {
			fmt.Fprintf(&b, " nest=%d", ph.Nest)
			if ph.Batch {
				b.WriteString(" batched")
			}
		}
	}
	if s.SlowEvery >= 2 {
		fmt.Fprintf(&b, " | slow every %d ×%.0f", s.SlowEvery, s.SlowFactor)
	}
	return b.String()
}
