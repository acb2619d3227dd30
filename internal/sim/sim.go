// Package sim builds the paper's experimental database — R1 with a
// clustered B-tree on its selection attribute, hashed R2 and R3, N1
// selection procedures and N2 join procedures with sharing factor SF —
// and runs the paper's workload (k l-tuple update transactions randomly
// interleaved with q procedure accesses under Z-skewed locality) against
// any of the four strategies, measuring simulated milliseconds with the
// same C1/C2/C3/C_inval constants the analytic model uses.
//
// The analytic model (package costmodel) predicts these measurements; the
// experiments package compares the two.
//
// Each World is self-contained — it owns its pager, meter, tracer, and
// seeded RNGs, and touches no package-level mutable state — so distinct
// worlds may Build and Run concurrently (the parallel sweep engine's
// determinism contract, docs/PARALLEL.md). A single World is not safe
// for concurrent use.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"dbproc/internal/avm"
	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/ilock"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/proc"
	"dbproc/internal/query"
	"dbproc/internal/relation"
	"dbproc/internal/rete"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
	"dbproc/internal/workload"
)

// p2Max is the value range of R2's filter attribute; a C_f2 band has width
// F2 * p2Max.
const p2Max = 1 << 20

// Config selects one simulation run.
type Config struct {
	// Params carries the paper's parameters (Figure 2), reused verbatim
	// from the analytic model.
	Params costmodel.Params
	// Model selects 2-way (Model1) or 3-way (Model2) P2 procedures.
	Model costmodel.Model
	// Strategy is the query-processing strategy under test.
	Strategy costmodel.Strategy
	// Seed drives every random choice, so strategies can be compared on
	// identical workloads.
	Seed int64
	// Scenario names a hostile-workload scenario from the workload
	// catalog (docs/SCENARIOS.md). Empty runs the paper's polite
	// workload; an unknown name panics in Build. The scenario reshapes
	// Stream (phased k/q/skew, storm targeting, bulk L overrides,
	// adversarial update footprints, nested procedure calls) and, via
	// Schedule, the engine's per-session think-time scaling.
	Scenario string
	// R2UpdateFraction is the fraction of update transactions that modify
	// R2 (re-drawing the C_f2 attribute of l tuples) instead of R1. The
	// paper's model assumes 0 ("relations R2 and R3 are not modified");
	// nonzero values explore the section 8 question of relative update
	// frequency across relations, which the paper leaves unanalyzed.
	R2UpdateFraction float64
	// Adaptive replaces the configured Strategy with the per-procedure
	// adaptive cache/bypass strategy (the section 8 "whether to cache"
	// decision problem); Strategy is ignored and PredictedMs becomes the
	// min of the Cache-and-Invalidate and Always-Recompute predictions —
	// the envelope the adaptive strategy targets.
	Adaptive bool
	// Tracer, when non-nil, records a span per workload operation plus
	// strategy-internal child spans (recompute scans, CI refreshes, AVM
	// route/merge phases, Rete propagation) in every mode: the engine
	// moves each session's spans into it at commit. Nil disables tracing
	// at the cost of one nil check per instrumentation point.
	Tracer *obs.Tracer
	// Ledger, when non-nil, receives the cache-efficacy event stream
	// (docs/DIAGNOSIS.md): per-entry computed/hit/invalidated/maintained
	// transitions with their meter deltas, plus per-entry baseline
	// recompute costs measured against the initial base state. Ledger
	// events live entirely in the simulated-cost domain, so attaching
	// one never perturbs the run's counters. No-op for strategies
	// without cached state (Always Recompute).
	Ledger *cache.Ledger
	// Ablations disable individual design choices for the ablation
	// experiments.
	Ablations Ablations
}

// Ablations toggles off design choices the system normally relies on, to
// quantify what each is worth.
type Ablations struct {
	// NaiveReteDispatch makes the Rete root broadcast every token to every
	// t-const on its relation instead of rule-indexed dispatch.
	NaiveReteDispatch bool
	// NoRootPin charges B-tree descents for the root page read.
	NoRootPin bool
	// CoarseInvalidation makes Cache and Invalidate use relation-level
	// locks instead of i-lock intervals and keys.
	CoarseInvalidation bool
}

// Result reports one run's measurements.
type Result struct {
	Config  Config
	Queries int
	Updates int
	// TotalMs is the simulated cost of the whole workload; MsPerQuery is
	// TotalMs divided by the number of queries — the quantity the paper's
	// TOT formulas predict.
	TotalMs    float64
	MsPerQuery float64
	// PredictedMs is the analytic model's prediction for the same
	// parameters.
	PredictedMs float64
	// Counters itemizes the charged events.
	Counters metric.Counters
	// TuplesReturned counts result tuples delivered to queries.
	TuplesReturned int
	// ColdFraction is the measured fraction of Cache-and-Invalidate
	// accesses that found the cache invalid — the empirical counterpart of
	// the model's IP. NaN for other strategies.
	ColdFraction float64
}

// World is one fully built simulation instance. The meter and pager are
// the world's own sequential session (Build and the sequential Run use
// them); the concurrent engine instead gives each session a private
// meter/pager pair over the shared disk via SessionPager.
type World struct {
	cfg   Config
	costs metric.Costs
	meter *metric.Meter
	pager *storage.Pager

	r1, r2, r3 *relation.Relation
	// skey tracks each R1 tuple's current clustering value, so updates can
	// locate tuples without charged I/O; p2 does the same for R2's filter
	// attribute.
	skey []int64
	p2   []int64

	mgr   *proc.Manager
	specs []*procSpec
	gen   *workload.Generator
	sched *workload.Schedule // nil for the polite workload
	strat proc.Strategy
	// net is the RVM strategy's Rete network, nil under the others.
	net *rete.Network

	// denseBand caches the densest i-lock interval — the skey range
	// covered by the most procedure bands — for adversarial updates.
	denseBand    [2]int64
	denseBandSet bool
}

// procSpec records how one procedure was generated.
type procSpec struct {
	id     int
	isP2   bool
	band   [2]int64 // C_f band on R1.skey
	p2Band [2]int64 // C_f2 band on R2.p2 (P2 only)
	shared bool     // reuses a P1 procedure's band (P2 only)
	def    *proc.Definition
}

// Build constructs the world for cfg: relations loaded, procedures
// defined, strategy prepared (uncharged), meter zeroed.
func Build(cfg Config) *World {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if cfg.Model != costmodel.Model1 && cfg.Model != costmodel.Model2 {
		panic("sim: bad model")
	}
	costs := metric.Costs{C1: p.C1, C2: p.C2, C3: p.C3, CInval: p.CInval}
	meter := metric.NewMeter(costs)
	pager := storage.NewPager(storage.NewDisk(int(p.B)), meter)
	pager.SetCharging(false)

	w := &World{cfg: cfg, costs: costs, meter: meter, pager: pager}
	w.loadRelations()
	w.generateProcs()
	w.buildStrategy()

	w.strat.Prepare(w.pager)

	// Attach tracing after Prepare so setup work records no spans. The
	// tracer rides on the pager, where every layer an operation runs
	// through finds it.
	pager.SetTracer(cfg.Tracer)

	// Attach the efficacy ledger to the cache store, where strategies read
	// it, after Prepare so setup work records no events, and measure each
	// entry's from-scratch recompute baseline on a throwaway meter (the
	// world's counters stay untouched). The load's dirty frames are flushed
	// first, so the measuring pager reads the loaded relations from the
	// disk.
	if l := cfg.Ledger; l != nil {
		pager.BeginOp()
		for _, id := range w.ProcIDs() {
			bm := metric.NewMeter(costs)
			bpg := storage.NewPager(pager.Disk(), bm)
			d := w.mgr.MustGet(id)
			query.Run(d.Plan, &query.Ctx{Meter: bm, Pager: bpg})
			l.SetBaseline(id, bm.Milliseconds())
		}
		if cs := w.CacheStore(); cs != nil {
			cs.SetLedger(l)
		}
	}

	pager.BeginOp()
	pager.SetCharging(true)
	meter.Reset()
	return w
}

// SessionPager creates a fresh per-session pager over the world's shared
// disk, with its own zeroed meter (same cost constants), the session tag
// set and, when the world traces, its own tracer. A new session pager is
// in exactly the state Build leaves the world's own pager in — operation
// scope begun, charging on, meter zero — so a single session executing
// through it reproduces the sequential run byte for byte, spans included.
func (w *World) SessionPager(session int) *storage.Pager {
	m := metric.NewMeter(w.costs)
	pg := storage.NewPager(w.pager.Disk(), m)
	pg.SetSession(session)
	if w.cfg.Tracer != nil {
		pg.SetTracer(obs.NewTracer())
	}
	pg.BeginOp()
	return pg
}

// Disk exposes the world's shared disk.
func (w *World) Disk() *storage.Disk { return w.pager.Disk() }

func (w *World) loadRelations() {
	p := w.cfg.Params
	n := int(p.N)
	width := int(p.S)
	rng := rand.New(rand.NewSource(w.cfg.Seed))

	// Tuples are written by field index, in the order each schema below
	// declares its fields, and R1's straight into its bulk-loaded leaves.
	s1 := tuple.NewSchema("r1", width,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "skey"}, tuple.Field{Name: "a"})
	n2 := int(math.Max(1, p.FR2*p.N))
	n3 := int(math.Max(1, p.FR3*p.N))
	w.skey = make([]int64, n)
	w.r1 = relation.BulkLoadBTreeFunc(w.pager, s1, "skey", "tid", int(p.D), n, func(i int, t []byte) {
		s1.Set(t, 0, int64(i))
		s1.Set(t, 1, int64(i))
		s1.Set(t, 2, int64(rng.Intn(n2)))
		w.skey[i] = int64(i)
	})
	if w.cfg.Ablations.NoRootPin {
		w.r1.Tree().SetRootPinned(false)
	}

	// R2 and R3 load through one reused tuple: Insert copies it into the
	// bucket page.
	perPage := int(p.B / p.S)
	s2 := tuple.NewSchema("r2", width,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "b"},
		tuple.Field{Name: "c"}, tuple.Field{Name: "p2"})
	w.r2 = relation.NewHash(w.pager.Disk(), s2, "b", (n2+perPage-1)/perPage)
	w.p2 = make([]int64, n2)
	t := s2.New()
	for j := 0; j < n2; j++ {
		s2.Set(t, 0, int64(j))
		s2.Set(t, 1, int64(j))
		s2.Set(t, 2, int64(rng.Intn(n3)))
		w.p2[j] = int64(rng.Intn(p2Max))
		s2.Set(t, 3, w.p2[j])
		w.r2.Insert(w.pager, t)
	}

	s3 := tuple.NewSchema("r3", width,
		tuple.Field{Name: "tid"}, tuple.Field{Name: "d"})
	w.r3 = relation.NewHash(w.pager.Disk(), s3, "d", (n3+perPage-1)/perPage)
	t = s3.New()
	for j := 0; j < n3; j++ {
		s3.Set(t, 0, int64(j))
		s3.Set(t, 1, int64(j))
		w.r3.Insert(w.pager, t)
	}
}

// bandWidth returns the tuple count of a selectivity-f band.
func bandWidth(f, n float64) int64 {
	wd := int64(f*n + 0.5)
	if wd < 1 {
		wd = 1
	}
	return wd
}

func (w *World) generateProcs() {
	p := w.cfg.Params
	rng := rand.New(rand.NewSource(w.cfg.Seed + 1))
	n := int64(p.N)
	fw := bandWidth(p.F, p.N)
	f2w := int64(p.F2*p2Max + 0.5)
	if f2w < 1 {
		f2w = 1
	}

	w.mgr = proc.NewManager()
	pickBand := func(width int64) [2]int64 {
		start := int64(rng.Intn(int(n - width + 1)))
		return [2]int64{start, start + width - 1}
	}

	id := 0
	var p1Bands [][2]int64
	for i := 0; i < int(p.N1); i++ {
		spec := &procSpec{id: id, band: pickBand(fw)}
		spec.def = proc.NewDefinition(id, fmt.Sprintf("P1_%d", i),
			query.NewBTreeRangeScan(w.r1, spec.band[0], spec.band[1]), "skey", "tid")
		w.mgr.Define(spec.def)
		w.specs = append(w.specs, spec)
		p1Bands = append(p1Bands, spec.band)
		id++
	}

	nShared := int(p.SF*p.N2 + 0.5)
	if len(p1Bands) == 0 {
		nShared = 0 // nothing to share with
	}
	for i := 0; i < int(p.N2); i++ {
		spec := &procSpec{id: id, isP2: true}
		if i < nShared {
			spec.band = p1Bands[rng.Intn(len(p1Bands))]
			spec.shared = true
		} else {
			spec.band = pickBand(fw)
		}
		lo := int64(rng.Intn(p2Max - int(f2w) + 1))
		spec.p2Band = [2]int64{lo, lo + f2w - 1}
		spec.def = proc.NewDefinition(id, fmt.Sprintf("P2_%d", i),
			w.p2Plan(spec), "skey", "tid")
		w.mgr.Define(spec.def)
		w.specs = append(w.specs, spec)
		id++
	}

	w.gen = workload.New(w.cfg.Seed+2, p.Z, w.mgr.IDs())

	if name := w.cfg.Scenario; name != "" {
		sc, ok := workload.ByName(name)
		if !ok {
			panic(fmt.Sprintf("sim: unknown scenario %q", name))
		}
		w.sched = workload.BuildSchedule(sc, workload.Base{
			K: int(p.K + 0.5),
			Q: int(p.Q + 0.5),
			Z: p.Z,
			L: int(p.L + 0.5),
		})
	}
}

// Schedule returns the resolved scenario schedule, or nil for the polite
// workload. The concurrent engine reads it for per-session modifiers
// (slow-consumer think scaling).
func (w *World) Schedule() *workload.Schedule { return w.sched }

// p2Plan compiles the full (charged) plan of a P2 procedure: B-tree scan
// of the C_f band, hash-probe join to R2 [then R3 in model 2], and the
// C_f2 screen. In model 2 the R3 probe precedes the screen, matching the
// model's Y6 = y(fR3·N, fR3·b, f·N): all f·N joined tuples probe R3.
func (w *World) p2Plan(spec *procSpec) query.Plan {
	width := int(w.cfg.Params.S)
	var plan query.Plan = query.NewBTreeRangeScan(w.r1, spec.band[0], spec.band[1])
	plan = query.NewHashJoinProbe(plan, w.r2, "a", width)
	pred := query.Range{Field: "r2_p2", Lo: spec.p2Band[0], Hi: spec.p2Band[1]}
	if w.cfg.Model == costmodel.Model1 {
		return &query.Filter{Child: plan, Pred: pred}
	}
	plan = query.NewHashJoinProbe(plan, w.r3, "r2_c", width)
	return &query.Filter{Child: plan, Pred: pred}
}

// p2DeltaPlan compiles the maintenance (uncharged-screen) variant over a
// delta ValuesScan, for AVM.
func (w *World) p2DeltaPlan(spec *procSpec, vs *query.ValuesScan) query.Plan {
	width := int(w.cfg.Params.S)
	var plan query.Plan = query.NewHashJoinProbe(vs, w.r2, "a", width)
	pred := query.Range{Field: "r2_p2", Lo: spec.p2Band[0], Hi: spec.p2Band[1]}
	if w.cfg.Model == costmodel.Model1 {
		return &query.Refine{Child: plan, Pred: pred}
	}
	plan = query.NewHashJoinProbe(plan, w.r3, "r2_c", width)
	return &query.Refine{Child: plan, Pred: pred}
}

func (w *World) buildStrategy() {
	if w.cfg.Adaptive {
		w.strat = proc.NewAdaptive(w.mgr, cache.NewStore(w.pager.Disk()))
		return
	}
	switch w.cfg.Strategy {
	case costmodel.AlwaysRecompute:
		w.strat = proc.NewAlwaysRecompute(w.mgr)
	case costmodel.CacheInvalidate:
		ci := proc.NewCacheInvalidate(w.mgr, cache.NewStore(w.pager.Disk()))
		ci.SetCoarseLocks(w.cfg.Ablations.CoarseInvalidation)
		w.strat = ci
	case costmodel.UpdateCacheAVM:
		w.strat = w.buildAVM()
	case costmodel.UpdateCacheRVM:
		w.strat = w.buildRVM()
	default:
		panic("sim: unknown strategy")
	}
}

func (w *World) buildAVM() proc.Strategy {
	store := cache.NewStore(w.pager.Disk())
	// AVM mutates entry files only inside update epochs, so they stay
	// MVCC-versioned: maintenance publishes atomically with the base
	// relations at the update's stamp (docs/MVCC.md).
	store.SetMaintained()
	eng := avm.NewEngine(store, ilock.NewManager())
	for _, spec := range w.specs {
		spec := spec
		spec.def.DefineEntry(store, w.pager.Disk().PageSize())
		view := &avm.View{
			ID:       spec.id,
			FullPlan: spec.def.Plan,
			Key:      spec.def.ResultKey,
		}
		r1Src := avm.Source{Rel: w.r1, Attr: "skey", Band: spec.band}
		if spec.isP2 {
			r1Src.DeltaPlan = func(vs *query.ValuesScan) query.Plan { return w.p2DeltaPlan(spec, vs) }
			view.Sources = []avm.Source{
				r1Src,
				{
					Rel:  w.r2,
					Attr: "p2",
					Band: spec.p2Band,
					// An R2 delta joins back to the view's R1 band with a
					// nested loop over the band scan (R1 is clustered on
					// skey, not the join attribute).
					DeltaPlan: func(vs *query.ValuesScan) query.Plan { return w.p2R2DeltaPlan(spec, vs) },
				},
			}
		} else {
			// P1: rule indexing already restricted deltas to the band,
			// which is the whole predicate — "no extra cost".
			r1Src.DeltaPlan = func(vs *query.ValuesScan) query.Plan { return vs }
			view.Sources = []avm.Source{r1Src}
		}
		eng.Register(view)
	}
	return proc.NewUpdateCache(w.mgr, store, eng)
}

// p2R2DeltaPlan compiles the R2-side maintenance plan of a P2 procedure:
// restrict the R2 deltas to the C_f2 band, nested-loop join them to the
// view's R1 band (charged band scan), then probe R3 in model 2. Output
// tuples are byte-identical to the full plan's.
func (w *World) p2R2DeltaPlan(spec *procSpec, vs *query.ValuesScan) query.Plan {
	width := int(w.cfg.Params.S)
	refined := &query.Refine{Child: vs, Pred: query.Range{Field: "p2", Lo: spec.p2Band[0], Hi: spec.p2Band[1]}}
	var plan query.Plan = query.NewNestedLoopJoin(
		query.NewBTreeRangeScan(w.r1, spec.band[0], spec.band[1]),
		refined, "a", "b", "r2_", width)
	if w.cfg.Model == costmodel.Model2 {
		plan = query.NewHashJoinProbe(plan, w.r3, "r2_c", width)
	}
	return plan
}
