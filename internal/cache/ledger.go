package cache

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"sort"
	"sync"
)

// Ledger event kinds: the lifecycle of one cached entry reads
// computed → hit* → invalidated-by-update-U → computed …, with
// "maintained" replacing the invalidate/recompute pair under the
// Update Cache strategies and "bypass" marking Adaptive accesses that
// skipped the cache entirely.
const (
	KindComputed    = "computed"
	KindHit         = "hit"
	KindInvalidated = "invalidated"
	KindMaintained  = "maintained"
	KindBypass      = "bypass"
)

// LedgerEvent is one entry-lifecycle transition. Costs are simulated
// milliseconds (the meter delta the transition charged), so the ledger
// holds no wall-clock state and a Clients=1 run serializes
// byte-identically across repetitions.
type LedgerEvent struct {
	// Entry is the procedure id; -1 marks strategy-level aggregate
	// maintenance that cannot be attributed to one entry (RVM's shared
	// Rete propagation).
	Entry int `json:"entry"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Op is the workload-order index of the operation that caused the
	// transition (-1 when unknown): for "invalidated" it names the
	// update U the entry was invalidated by.
	Op int `json:"op"`
	// Session is the executing session id, -1 outside the engine.
	Session int `json:"session"`
	// CostMs is the simulated cost charged by the transition.
	CostMs float64 `json:"cost_ms"`
	// Digest fingerprints the materialized result for "computed" events
	// (0 elsewhere); comparing digests across an invalidation detects
	// false invalidations.
	Digest uint64 `json:"digest,omitempty"`
}

// Ledger accumulates lifecycle events plus per-entry baseline recompute
// costs (the priced cost of running the entry's definition plan from
// scratch, measured against the initial base state). Safe for
// concurrent Record calls.
type Ledger struct {
	mu        sync.Mutex
	events    []LedgerEvent
	baselines map[int]float64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{baselines: make(map[int]float64)}
}

// Record appends one event. Nil-safe: strategies call it unconditionally
// guarded by their own nil check, but a stray nil receiver must not
// crash a run.
func (l *Ledger) Record(ev LedgerEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// SetBaseline records the from-scratch recompute cost of one entry.
func (l *Ledger) SetBaseline(entry int, costMs float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.baselines[entry] = costMs
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in record order.
func (l *Ledger) Events() []LedgerEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LedgerEvent(nil), l.events...)
}

// Baselines returns a copy of the per-entry baseline costs.
func (l *Ledger) Baselines() map[int]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]float64, len(l.baselines))
	for k, v := range l.baselines {
		out[k] = v
	}
	return out
}

// Stats analyzes the recorded events against the baselines.
func (l *Ledger) Stats() LedgerStats {
	return Analyze(l.Events(), l.Baselines())
}

// ResultDigest fingerprints a materialized result (FNV-1a over keys and
// record bytes, order-sensitive). Two digests are equal iff the
// serialized results are byte-identical in order, which is the
// false-invalidation test: an invalidation whose recompute reproduces
// the prior digest destroyed a still-correct result.
func ResultDigest(keys []uint64, recs [][]byte) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], k)
		h.Write(buf[:])
		if i < len(recs) {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(recs[i])))
			h.Write(buf[:])
			h.Write(recs[i])
		}
	}
	d := h.Sum64()
	if d == 0 {
		d = 1 // 0 is reserved for "no digest"
	}
	return d
}

// SurvivalBuckets label the entry-survival histogram: hits a cached
// generation served before being invalidated.
var SurvivalBuckets = []string{"0", "1", "2", "3", "4-7", "8-15", "16+"}

func survivalBucket(hits int) int {
	switch {
	case hits <= 3:
		return hits
	case hits <= 7:
		return 4
	case hits <= 15:
		return 5
	default:
		return 6
	}
}

// EntryStats is the per-entry efficacy summary.
type EntryStats struct {
	Entry              int     `json:"entry"`
	Computed           int     `json:"computed"`
	Hits               int     `json:"hits"`
	Invalidations      int     `json:"invalidations"`
	FalseInvalidations int     `json:"false_invalidations"`
	WastedGenerations  int     `json:"wasted_generations"`
	ComputeMs          float64 `json:"compute_ms"`
	HitMs              float64 `json:"hit_ms"`
	MaintainMs         float64 `json:"maintain_ms"`
	InvalMs            float64 `json:"inval_ms"`
	// WastedMs is the compute cost of generations invalidated before
	// serving a single hit: work the cache did for nothing.
	WastedMs float64 `json:"wasted_ms"`
	// BaselineMs is the from-scratch recompute cost of this entry.
	BaselineMs float64 `json:"baseline_ms"`
	// NetBenefitMs = (Hits+Computed)×BaselineMs − (ComputeMs + HitMs +
	// MaintainMs + InvalMs): simulated milliseconds saved versus
	// recomputing every access from scratch. An access that recomputes
	// is still an access Always Recompute would pay a baseline for.
	// Aggregate (entry −1) maintenance is apportioned equally across
	// entries before this is computed.
	NetBenefitMs float64 `json:"net_benefit_ms"`
}

// LedgerStats is the run-level efficacy summary.
type LedgerStats struct {
	Entries []EntryStats `json:"entries"`

	ComputeMs  float64 `json:"compute_ms"`
	HitMs      float64 `json:"hit_ms"`
	MaintainMs float64 `json:"maintain_ms"`
	InvalMs    float64 `json:"inval_ms"`
	BypassMs   float64 `json:"bypass_ms"`
	// TotalMs sums every event's cost; for the caching strategies it
	// equals the run's simulated total, so a strategy verdict can be
	// reached from ledger evidence alone.
	TotalMs float64 `json:"total_ms"`

	WastedMs          float64 `json:"wasted_ms"`
	WastedGenerations int     `json:"wasted_generations"`

	Invalidations      int `json:"invalidations"`
	FalseInvalidations int `json:"false_invalidations"`
	// ComparableRecomputes counts invalidations whose subsequent
	// recompute produced a digest to compare against — the denominator
	// of FalseInvalidationRate.
	ComparableRecomputes  int     `json:"comparable_recomputes"`
	FalseInvalidationRate float64 `json:"false_invalidation_rate"`

	// Survival[i] counts generations that served SurvivalBuckets[i]
	// hits before being invalidated.
	Survival []int `json:"survival"`

	NetBenefitMs float64 `json:"net_benefit_ms"`
}

type genState struct {
	open      bool
	computeMs float64
	hits      int
	digest    uint64
	// pendingDigest holds the digest the entry had when last
	// invalidated, awaiting the next recompute for comparison.
	pendingDigest uint64
	pending       bool
}

// Analyze folds an event stream into per-entry and run-level efficacy
// statistics. Deterministic: entries are sorted by id and all inputs are
// in the simulated-cost domain.
func Analyze(events []LedgerEvent, baselines map[int]float64) LedgerStats {
	st := LedgerStats{Survival: make([]int, len(SurvivalBuckets))}
	per := map[int]*EntryStats{}
	gens := map[int]*genState{}
	entry := func(id int) *EntryStats {
		e, ok := per[id]
		if !ok {
			e = &EntryStats{Entry: id}
			per[id] = e
		}
		return e
	}
	gen := func(id int) *genState {
		g, ok := gens[id]
		if !ok {
			g = &genState{}
			gens[id] = g
		}
		return g
	}
	var aggregateMaintainMs float64
	for _, ev := range events {
		st.TotalMs += ev.CostMs
		switch ev.Kind {
		case KindComputed:
			st.ComputeMs += ev.CostMs
			e, g := entry(ev.Entry), gen(ev.Entry)
			e.Computed++
			e.ComputeMs += ev.CostMs
			if g.pending {
				if g.pendingDigest != 0 && ev.Digest != 0 {
					st.ComparableRecomputes++
					if g.pendingDigest == ev.Digest {
						st.FalseInvalidations++
						e.FalseInvalidations++
					}
				}
				g.pending = false
			}
			g.open, g.computeMs, g.hits, g.digest = true, ev.CostMs, 0, ev.Digest
		case KindHit:
			st.HitMs += ev.CostMs
			e := entry(ev.Entry)
			e.Hits++
			e.HitMs += ev.CostMs
			if g := gen(ev.Entry); g.open {
				g.hits++
			}
		case KindInvalidated:
			st.InvalMs += ev.CostMs
			st.Invalidations++
			e, g := entry(ev.Entry), gen(ev.Entry)
			e.Invalidations++
			e.InvalMs += ev.CostMs
			if g.open {
				st.Survival[survivalBucket(g.hits)]++
				if g.hits == 0 {
					st.WastedMs += g.computeMs
					st.WastedGenerations++
					e.WastedMs += g.computeMs
					e.WastedGenerations++
				}
				g.pendingDigest, g.pending = g.digest, true
				g.open = false
			}
		case KindMaintained:
			st.MaintainMs += ev.CostMs
			if ev.Entry < 0 {
				aggregateMaintainMs += ev.CostMs
			} else {
				e := entry(ev.Entry)
				e.MaintainMs += ev.CostMs
			}
		case KindBypass:
			st.BypassMs += ev.CostMs
		}
	}
	// Every baseline entry participates even if it saw no events: a
	// never-accessed entry still bears its share of aggregate
	// maintenance cost.
	for id := range baselines {
		entry(id)
	}
	ids := make([]int, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	share := 0.0
	if len(ids) > 0 {
		share = aggregateMaintainMs / float64(len(ids))
	}
	for _, id := range ids {
		e := per[id]
		e.BaselineMs = baselines[id]
		e.MaintainMs += share
		e.NetBenefitMs = float64(e.Hits+e.Computed)*e.BaselineMs -
			(e.ComputeMs + e.HitMs + e.MaintainMs + e.InvalMs)
		st.NetBenefitMs += e.NetBenefitMs
		st.Entries = append(st.Entries, *e)
	}
	if st.ComparableRecomputes > 0 {
		st.FalseInvalidationRate = float64(st.FalseInvalidations) / float64(st.ComparableRecomputes)
	}
	return st
}

// Ledger serialization: a JSONL section per run — one "ledger" header
// line carrying run identity and baselines, then one "ledger.event"
// line per event. Sections concatenate, so one file can hold a whole
// strategy sweep.

// LedgerMeta is the section header.
type LedgerMeta struct {
	Type      string           `json:"type"`
	Strategy  string           `json:"strategy"`
	Model     int              `json:"model"`
	Clients   int              `json:"clients"`
	Seed      int64            `json:"seed"`
	Queries   int              `json:"queries"`
	Updates   int              `json:"updates"`
	TotalMs   float64          `json:"total_ms"`
	Baselines []BaselineRecord `json:"baselines"`
}

// BaselineRecord is one entry's from-scratch recompute cost in the
// section header (sorted by entry for deterministic serialization).
type BaselineRecord struct {
	Entry  int     `json:"entry"`
	CostMs float64 `json:"cost_ms"`
}

type ledgerEventRecord struct {
	Type string `json:"type"`
	LedgerEvent
}

// RecordLedger and RecordLedgerEvent are the JSONL type tags.
const (
	RecordLedger      = "ledger"
	RecordLedgerEvent = "ledger.event"
)

// WriteLedger serializes one run's ledger as a JSONL section. The meta's
// Type and Baselines fields are filled in here.
func WriteLedger(w io.Writer, meta LedgerMeta, l *Ledger) error {
	bw := bufio.NewWriter(w)
	meta.Type = RecordLedger
	meta.Baselines = meta.Baselines[:0]
	bl := l.Baselines()
	ids := make([]int, 0, len(bl))
	for id := range bl {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		meta.Baselines = append(meta.Baselines, BaselineRecord{Entry: id, CostMs: bl[id]})
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, ev := range l.Events() {
		if err := enc.Encode(ledgerEventRecord{Type: RecordLedgerEvent, LedgerEvent: ev}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LedgerRun is one parsed section.
type LedgerRun struct {
	Meta   LedgerMeta
	Events []LedgerEvent
}

// BaselineMap rebuilds the baselines map from the section header.
func (r *LedgerRun) BaselineMap() map[int]float64 {
	out := make(map[int]float64, len(r.Meta.Baselines))
	for _, b := range r.Meta.Baselines {
		out[b.Entry] = b.CostMs
	}
	return out
}

// Stats analyzes the run's events against its baselines.
func (r *LedgerRun) Stats() LedgerStats {
	return Analyze(r.Events, r.BaselineMap())
}
