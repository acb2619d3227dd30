package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/sim"
	"dbproc/internal/telemetry"
	"dbproc/internal/workload"
)

// Options configure one concurrent run.
type Options struct {
	// Clients is the number of closed-loop sessions; values below 1 mean
	// one session. With one session the engine executes the world's
	// workload in its original sequential order, so measured counters and
	// results are byte-identical to sim.Run on the same Config.
	Clients int
	// ThinkMeanMs is the mean of each session's exponentially distributed
	// wall-clock think time between operations; zero disables thinking.
	ThinkMeanMs float64
	// RecordHistory retains the per-operation records: a HistoryEntry per
	// operation (the oracles' input) and, under CritPath, an OpCritPath
	// per operation. It is the only option that keeps anything per
	// operation. Off, the engine keeps aggregate statistics and the
	// running history digest, so its memory does not grow with the
	// number of operations it commits.
	RecordHistory bool
	// Recorder, when non-nil, streams flight events: op begin/commit,
	// per-lock waits with their holders, lock release, and — via the
	// observers the engine installs on the cache store — validity
	// transitions. It also arms the regression detectors at
	// telemetry.DefaultThresholds (p99 wall latency, lock-contention
	// share, ledger wasted-work ratio): a firing detector records an
	// EvDetector event, which triggers the recorder's auto-dump. The
	// latency detector compares the wall histogram's p99 bucket edge, so
	// it can fire up to one bucket ratio (< 1.1x) early. Nil keeps the hot
	// path at one pointer check per site.
	Recorder *telemetry.Recorder
	// CritPath enables per-operation critical-path decomposition
	// (docs/DIAGNOSIS.md): the pager times its I/O and cache-miss
	// recompute scopes, and every committed op's wall time is split
	// exactly — the four segments sum bit-exactly to the op's recorded
	// wall time — into lock-wait, I/O, recompute, and compute. Results
	// land in Result's segment totals (and, under RecordHistory,
	// Result.CritPaths), on /metrics (dbproc_critpath_seconds_total) and
	// in OpOutcome's segments. Lock waits and their blame edges are
	// measured without it.
	CritPath bool
}

// HistoryEntry is one committed operation in the run's history. Seq is
// the global commit order, drawn from the engine's commit-sequence
// counter while the operation's locks are still held; entries in the
// History slice appear in Seq order.
type HistoryEntry struct {
	Session int
	Seq     int
	Op      workload.Op
	// Update carries the transaction's recorded draws (update ops).
	Update sim.UpdateRecord
	// Result is the canonical digest of the query result (query ops).
	Result []byte
	// Tuples counts the query's result tuples.
	Tuples int
	// CostMs is the operation's simulated cost: the session meter's delta
	// across the operation body, priced at the run's cost parameters.
	CostMs float64
	// Snap is the MVCC stamp the op ran at: the snapshot a query read at,
	// or the commit stamp an update published.
	Snap uint64
}

// SessionStats aggregates one session's activity.
type SessionStats struct {
	Session int
	Ops     int
	Queries int
	Updates int
	// Tuples counts result tuples delivered to this session's queries.
	Tuples int
	// Counters is the simulated cost charged to this session's private
	// meter; per-session counters sum exactly to the run aggregate.
	Counters metric.Counters
	// WaitNs, ServiceNs and ThinkNs decompose the session's wall clock:
	// waiting for locks, executing the operation body, and thinking
	// between operations.
	WaitNs    int64
	ServiceNs int64
	ThinkNs   int64
}

// Result reports one concurrent run.
type Result struct {
	Clients        int
	Ops            int
	Queries        int
	Updates        int
	TuplesReturned int
	// WallSec is the elapsed wall-clock of the whole run; Throughput is
	// Ops divided by it.
	WallSec    float64
	Throughput float64
	// SimTotalMs is the simulated cost of the whole workload (the same
	// quantity sim.Result.TotalMs reports).
	SimTotalMs float64
	Counters   metric.Counters
	// Breakdown attributes Counters to the components that charged them.
	Breakdown metric.Breakdown
	Sessions  []SessionStats
	// History is the committed operation history in commit order; empty
	// unless Options.RecordHistory.
	History []HistoryEntry
	// HistoryDigest is the running digest every commit folds into, set
	// whether or not History is kept: HistoryDigest(History) equals it.
	HistoryDigest string
	// Contention is the lock table's wall-clock contention profile,
	// sorted by total wait time.
	Contention []LockContention
	// WallLatency and SimLatency summarize every session's per-op latency
	// histograms, merged: wall-clock nanoseconds (lock wait + latched
	// service) and simulated milliseconds (the op's metered cost).
	WallLatency obs.Summary
	SimLatency  obs.Summary
	// CritPaths is every committed op's wall-time decomposition in commit
	// order; empty unless both Options.CritPath and Options.RecordHistory.
	CritPaths []OpCritPath
	// SegWaitNs, SegIONs, SegRecomputeNs and SegComputeNs total the four
	// critical-path segments over every committed op; zero unless
	// Options.CritPath.
	SegWaitNs, SegIONs, SegRecomputeNs, SegComputeNs int64
	// TopBlockers aggregates blame edges — the update footprint's and
	// the version GC's — by (lock, holder), sorted by total wait
	// descending.
	TopBlockers []BlockerStat
}

// OpCritPath is one committed operation's critical-path decomposition.
// WaitNs + IONs + RecomputeNs + ComputeNs == WallNs exactly: ComputeNs
// is defined as the remainder, and the measured segments are durations
// of disjoint sub-intervals of the op's wall interval, so the remainder
// is never negative (the property test asserts both).
type OpCritPath struct {
	Session int
	Seq     int
	Op      string
	WallNs  int64
	// WaitNs is the lock-acquisition wait (the 2PL queue).
	WaitNs int64
	// IONs is wall time inside simulated-disk reads and writes.
	IONs int64
	// RecomputeNs is wall time inside cache-miss recompute scopes,
	// excluding the I/O accrued within them.
	RecomputeNs int64
	// ComputeNs is the remainder: plan evaluation, cache reads, commit
	// bookkeeping.
	ComputeNs int64
	// Blame carries one edge per waited-for lock; the edges' waits sum to
	// WaitNs.
	Blame []LockWait
}

// BlockerStat aggregates the blame edges pointing at one (lock, holder)
// pair: how often and how long that holder made others wait on the lock.
type BlockerStat struct {
	Lock          string `json:"lock"`
	HolderSession int    `json:"holder_session"`
	HolderOp      string `json:"holder_op"`
	Waits         int    `json:"waits"`
	WaitNs        int64  `json:"wait_ns"`
}

type blockerKey struct {
	lock    string
	session int
	op      string
}

// Engine drives N sessions against one world.
type Engine struct {
	w     *sim.World
	opt   Options
	locks *LockTable
	costs metric.Costs
	// tracer is Config.Tracer, where commits move sessions' spans.
	tracer *obs.Tracer

	// commitMu orders commits: the sequence counter, the history digest
	// fold (and append), the aggregate merge and the span move form one
	// atomic commit step, taken while the operation's 2PL footprint is
	// still held. Nothing else runs under it — operation bodies execute in
	// parallel against the shared substrate (immutable page images,
	// subsystem mutexes), with the lock table providing logical isolation.
	commitMu sync.Mutex
	seq      int
	histDig  historyDigest
	hist     []HistoryEntry
	// digest is Digest; a test substitutes a wrapper to observe where in
	// Exec a result is digested.
	digest func([][]byte) []byte
	// updateFP is every update's footprint and gcFP the version GC's
	// (GCLock alone), canonical and shared by all sessions (AcquireAs only
	// reads them).
	updateFP, gcFP Footprint

	// agg accumulates every committed operation's per-component cost
	// delta. Its counters are atomics: a telemetry scrape reads them
	// mid-run without stalling any session, and each counter is
	// monotone across scrapes.
	agg metric.Aggregate

	// Live counters for the /metrics scrape (atomics: read off-thread).
	inflight  atomic.Int64
	committed atomic.Int64

	// Scenario-phase labelling: phaseNames mirrors the workload
	// schedule's phase list and phaseOps counts commits per phase. Both
	// stay nil on polite (scenario-less) workloads, so spans and metrics
	// are unchanged there.
	phaseNames []string
	phaseOps   []atomic.Int64

	// Blame and critical-path state: the blame aggregation (keyed by
	// lock, holder session and "update" or "gc", so it stays bounded)
	// and, under CritPath and RecordHistory, the per-op decompositions
	// behind critMu; per-segment wall totals (CritPath) as atomics so a
	// live scrape reads them without the mutex.
	critMu   sync.Mutex
	crits    []OpCritPath
	blockers map[blockerKey]*BlockerStat

	segWait      atomic.Int64
	segIO        atomic.Int64
	segRecompute atomic.Int64
	segCompute   atomic.Int64

	// Wall totals for the contention-share detector (always accumulated;
	// two atomic adds per op).
	waitNsTot atomic.Int64
	wallNsTot atomic.Int64

	// det is armed whenever a Recorder is installed.
	det *telemetry.Detectors

	// sessions holds the opened sessions, indexed by id (one slot per
	// configured client). Run opens them itself; a server front-end opens
	// them via OpenSession and steps each with Session.Next.
	sessMu   sync.Mutex
	sessions []*Session

	// ops is the world's one operation stream, drawn on first use (Deal or
	// Session.Next) so an engine driven only through Exec never draws it.
	opsOnce sync.Once
	ops     *workload.Stream
}

// New builds the world for cfg and an engine over it. With cfg.Tracer
// set, each committed op's span tree lands in it in commit order (Exec).
func New(cfg sim.Config, opt Options) *Engine {
	if opt.Clients < 1 {
		opt.Clients = 1
	}
	w := sim.Build(cfg)
	e := &Engine{w: w, opt: opt, tracer: cfg.Tracer, locks: NewLockTable(), costs: w.Meter().Costs(), digest: Digest,
		histDig: newHistoryDigest(), updateFP: updateFootprint(), gcFP: gcFootprint(),
		blockers: make(map[blockerKey]*BlockerStat)}
	e.sessions = make([]*Session, opt.Clients)
	if opt.Recorder != nil {
		e.det = telemetry.NewDetectors(telemetry.DefaultThresholds(), opt.Recorder)
	}
	if sched := w.Schedule(); sched != nil && sched.Scenario != "" {
		for _, p := range sched.Phases {
			e.phaseNames = append(e.phaseNames, p.Name)
		}
		e.phaseOps = make([]atomic.Int64, len(e.phaseNames))
	}
	if rec := opt.Recorder; rec != nil {
		if store := w.CacheStore(); store != nil {
			store.SetObserver(func(event string, id, session int) {
				// The session tag rides on the pager the transition was
				// charged to, so attribution survives parallel execution.
				rec.Op(event, session, -1, fmt.Sprintf("proc:%d", id), 0, 0)
			})
		}
	}
	return e
}

// World exposes the engine's world (for post-run verification).
func (e *Engine) World() *sim.World { return e.w }

// GCLock is the lock-table resource serializing version-chain garbage
// collection. Waits on it are MVCC bookkeeping, not update-footprint
// contention — procstat classifies the two separately.
const GCLock = "mvcc:gc"

// phaseName resolves an op's phase index to its schedule name; empty on
// polite workloads or out-of-range indices.
func (e *Engine) phaseName(idx int) string {
	if idx < 0 || idx >= len(e.phaseNames) {
		return ""
	}
	return e.phaseNames[idx]
}

// countPhase bumps the committed counter for an op's phase (no-op on
// polite workloads).
func (e *Engine) countPhase(idx int) {
	if idx >= 0 && idx < len(e.phaseOps) {
		e.phaseOps[idx].Add(1)
	}
}

// OpFootprint returns the 2PL lock set Exec acquires for op (benchmark
// harnesses read it too). A query needs none: it
// reads base relations and maintained entry files through its snapshot,
// and the rewrite-at-query-time strategy (C&I, Adaptive included)
// serializes on its own per-entry mutexes (docs/MVCC.md). Every update takes the one
// prebuilt update footprint.
func (e *Engine) OpFootprint(op workload.Op) Footprint {
	if op.Kind == workload.Update {
		return e.updateFP
	}
	return Footprint{}
}

// updateFootprint builds the one footprint every update takes: r1 and r2
// exclusive (the target relation is drawn at execution time) and r3
// shared (model-2 maintenance plans probe it). Holding r1 and r2
// exclusive makes an update the only writer, so it serializes every
// invalidation and maintenance fan-out with no per-entry lock
// (docs/CONCURRENCY.md). New builds it once, in canonical order.
func updateFootprint() Footprint {
	var f Footprint
	f.Exclusive(RelLock("r1"), RelLock("r2"))
	f.Shared(RelLock("r3"))
	return f.normalized()
}

// gcFootprint is what an update's version GC takes: GCLock alone. Built
// once, like the update footprint.
func gcFootprint() Footprint {
	var f Footprint
	f.Exclusive(GCLock)
	return f.normalized()
}

// stream draws the world's operation stream once.
func (e *Engine) stream() *workload.Stream {
	e.opsOnce.Do(func() { e.ops = e.w.Stream() })
	return e.ops
}

// Deal returns each session's share of the world's one operation stream:
// session i of n executes ops i, i+n, i+2n, … in that order
// (Session.Next), so it holds ceil((len-i)/n) of them. Every driver deals
// this way — Run, and a served world through TWorldNext — so a given
// client count commits the same per-session streams wherever it runs,
// and one session commits sim.Run's stream.
func (e *Engine) Deal() []int {
	n, total := len(e.sessions), e.stream().Len()
	counts := make([]int, n)
	for i := range counts {
		counts[i] = (total - i + n - 1) / n
	}
	return counts
}

// Run executes the world's workload across Options.Clients sessions, each
// stepping through its dealt ops (Deal) closed loop with think times;
// every operation executes atomically under its lock footprint. The run
// ends when every session drains or ctx is cancelled.
func (e *Engine) Run(ctx context.Context) Result {
	if e.opt.RecordHistory {
		e.hist = make([]HistoryEntry, 0, e.stream().Len())
	}

	var wg sync.WaitGroup
	start := time.Now()
	sched := e.w.Schedule()
	for s := 0; s < e.opt.Clients; s++ {
		sess := e.OpenSession(s)
		// Scenario schedules can mark sessions as slow consumers; their
		// mean think time is scaled up, stretching the closed-loop tail.
		think := workload.NewThinker(e.w.Config().Seed+7001+int64(s),
			e.opt.ThinkMeanMs*sched.ThinkScale(s))
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, done := sess.Next(); done {
					return
				}
				if d := think.Next(); d > 0 {
					sess.Think(d)
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
			}
		}(sess)
	}
	wg.Wait()
	return e.Finish(time.Since(start).Seconds())
}

// TopBlockers snapshots the blame aggregation, sorted by total wait
// descending then (lock, holder) for determinism; k > 0 caps the list.
// Safe to call while a run is live.
func (e *Engine) TopBlockers(k int) []BlockerStat {
	e.critMu.Lock()
	out := make([]BlockerStat, 0, len(e.blockers))
	for _, b := range e.blockers {
		out = append(out, *b)
	}
	e.critMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitNs != out[j].WaitNs {
			return out[i].WaitNs > out[j].WaitNs
		}
		if out[i].Lock != out[j].Lock {
			return out[i].Lock < out[j].Lock
		}
		if out[i].HolderSession != out[j].HolderSession {
			return out[i].HolderSession < out[j].HolderSession
		}
		return out[i].HolderOp < out[j].HolderOp
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Locks exposes the engine's lock table (for contention snapshots while
// a run is live).
func (e *Engine) Locks() *LockTable { return e.locks }

// TelemetryMetrics implements telemetry.Source: the engine's live
// /metrics samples. Safe to call from a scrape goroutine during Run —
// the counters are atomics, the lock profile is an atomic snapshot, and
// the simulated-cost counters are atomic reads of the commit aggregate,
// so every scrape sees them (mid-operation included) and each counter
// is monotone across scrapes.
func (e *Engine) TelemetryMetrics() []telemetry.Metric {
	ms := []telemetry.Metric{
		telemetry.Gauge("dbproc_sessions", "Configured client sessions.", float64(e.opt.Clients), nil),
		telemetry.Gauge("dbproc_sessions_inflight", "Sessions currently acquiring locks or executing.",
			float64(e.inflight.Load()), nil),
		telemetry.Counter("dbproc_ops_committed_total", "Operations committed.",
			float64(e.committed.Load()), nil),
	}
	for i := range e.phaseOps {
		ms = append(ms, telemetry.Counter("dbproc_phase_ops_committed_total",
			"Operations committed per scenario phase.", float64(e.phaseOps[i].Load()),
			map[string]string{"phase": e.phaseNames[i]}))
	}
	for _, c := range e.locks.Contention() {
		lbl := map[string]string{"lock": c.Name}
		ms = append(ms,
			telemetry.Counter("dbproc_lock_acquires_total", "Lock acquisitions.", float64(c.Acquires), lbl),
			telemetry.Counter("dbproc_lock_contended_total", "Lock acquisitions that waited.", float64(c.Contended), lbl),
			telemetry.Counter("dbproc_lock_wait_seconds_total", "Wall-clock lock wait.", float64(c.WaitNs)/1e9, lbl),
			telemetry.Counter("dbproc_lock_hold_seconds_total", "Wall-clock lock hold.", float64(c.HoldNs)/1e9, lbl),
			telemetry.Gauge("dbproc_lock_max_wait_seconds", "Longest single wall-clock wait for the lock.", float64(c.MaxWaitNs)/1e9, lbl),
		)
	}
	wall, simMs := e.latency()
	for _, q := range obs.Quantiles {
		lbl := map[string]string{"quantile": fmt.Sprintf("%g", q)}
		ms = append(ms,
			telemetry.Gauge("dbproc_op_latency_wall_ns", "Per-op wall-clock latency (histogram bucket upper edge).",
				wall.Quantile(q), lbl),
			telemetry.Gauge("dbproc_op_latency_sim_ms", "Per-op simulated cost (histogram bucket upper edge).",
				simMs.Quantile(q), lbl),
		)
	}
	if e.opt.CritPath {
		for _, seg := range []struct {
			name string
			ns   int64
		}{
			{"lock_wait", e.segWait.Load()},
			{"io", e.segIO.Load()},
			{"recompute", e.segRecompute.Load()},
			{"compute", e.segCompute.Load()},
		} {
			ms = append(ms, telemetry.Counter("dbproc_critpath_seconds_total",
				"Wall-clock critical-path time by segment.", float64(seg.ns)/1e9,
				map[string]string{"segment": seg.name}))
		}
	}
	for _, b := range e.TopBlockers(8) {
		lbl := map[string]string{
			"lock":           b.Lock,
			"holder_op":      b.HolderOp,
			"holder_session": strconv.Itoa(b.HolderSession),
		}
		ms = append(ms,
			telemetry.Counter("dbproc_blame_wait_seconds_total",
				"Wall-clock lock wait attributed to the holding session/op.",
				float64(b.WaitNs)/1e9, lbl),
			telemetry.Counter("dbproc_blame_waits_total",
				"Lock waits attributed to the holding session/op.",
				float64(b.Waits), lbl),
		)
	}
	// A reuse ratio (reused/reclaimed) well below 1 means updates are
	// allocating page images again: look at the horizon lag first.
	reclaimed, reused, pooled, lag := e.w.Disk().ReclaimStats()
	pages, imageBytes := e.w.Disk().ImageStats()
	ms = append(ms,
		telemetry.Gauge("dbproc_disk_pages", "Pages allocated on the world's disk, freed ones included.", float64(pages), nil),
		telemetry.Gauge("dbproc_disk_image_bytes",
			"Bytes the pages' newest images hold: each page is sized to its owner's records.", float64(imageBytes), nil),
		telemetry.Counter("dbproc_mvcc_images_reclaimed_total",
			"Superseded page images version GC cut off below the horizon.", float64(reclaimed), nil),
		telemetry.Counter("dbproc_mvcc_images_reused_total",
			"Page buffers an update took from the reclaimed pool instead of allocating.", float64(reused), nil),
		telemetry.Gauge("dbproc_mvcc_image_pool", "Reclaimed page buffers awaiting reuse.", float64(pooled), nil),
		telemetry.Gauge("dbproc_mvcc_gc_horizon_lag",
			"Commit stamp minus the GC horizon (oldest registered snapshot) at the last version GC.", float64(lag), nil),
	)
	// Simulated-cost counters come straight from the commit aggregate's
	// atomics: no latch to try, no scrape ever skipped.
	c := e.agg.Total()
	for _, s := range []struct {
		event string
		n     int64
	}{
		{"page_read", c.PageReads},
		{"page_write", c.PageWrites},
		{"screen", c.Screens},
		{"delta_op", c.DeltaOps},
		{"invalidation", c.Invalidations},
	} {
		ms = append(ms, telemetry.Counter("dbproc_sim_events_total",
			"Simulated cost events by kind.", float64(s.n),
			map[string]string{"event": s.event}))
	}
	return ms
}
