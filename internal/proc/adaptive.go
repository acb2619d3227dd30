package proc

import (
	"sort"
	"sync"

	"dbproc/internal/cache"
	"dbproc/internal/ilock"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/query"
	"dbproc/internal/storage"
)

// Adaptive decides per procedure whether caching its result pays — the
// question the paper's section 8 raises via Sellis's work and leaves open.
// Each procedure runs in one of two modes:
//
//   - caching: behave exactly like Cache and Invalidate (serve the cache
//     while valid, refresh on a cold access, record invalidations at
//     C_inval per conflicting update);
//   - bypass: keep no cached value and hold no i-locks — every access
//     recomputes, but there is no write-back and no invalidation cost.
//
// A procedure whose recent accesses were almost always cold (the C&I
// plateau regime, where caching costs strictly more than recomputing)
// drops to bypass; a bypassed procedure periodically retries caching so it
// can recover when the update rate falls. The paper notes C&I "does not
// degrade significantly if the system makes a mistake" — Adaptive removes
// even that residual degradation (the wasted write-backs and, with
// expensive invalidation, the whole T3 term).
//
// The states map is frozen after Prepare; each procedure's state is
// mutated only under its per-state mutex, which also serializes accesses
// and update fan-outs touching the same procedure's (unversioned) cached
// file — the Adaptive counterpart of C&I's entry access mutex
// (docs/MVCC.md).
type Adaptive struct {
	mgr    *Manager
	store  *cache.Store
	locks  *ilock.Manager
	tracer *obs.Tracer
	ledger *cache.Ledger

	// Window is the number of accesses per mode evaluation (default 4).
	Window int
	// ColdThreshold is the cold-access fraction above which a procedure
	// drops to bypass (default 0.9, near the plateau crossover).
	ColdThreshold float64
	// ProbeEvery is the number of bypassed accesses before caching is
	// retried (default 16).
	ProbeEvery int
	// BypassAfterInvalidations drops a procedure to bypass as soon as this
	// many invalidations arrive without an intervening access (default 8):
	// with expensive invalidation recording, waiting for the next access
	// to notice the churn wastes a C_inval per conflicting update.
	BypassAfterInvalidations int

	states map[int]*adaptiveState

	// afterUnlock, when a test sets it, runs right after an access
	// releases the procedure's state mutex — where a second reader of
	// the entry may first run.
	afterUnlock func()
}

type adaptiveState struct {
	// mu serializes this procedure's accesses and update fan-outs: mode
	// state mutation, entry-file rewrites and reads of the (unversioned)
	// cached file all happen under it. Lock order is st.mu before the
	// entry's internal mutex, in both directions (docs/MVCC.md).
	mu          sync.Mutex
	bypass      bool
	accesses    int
	cold        int
	sinceBypass int
	// backoff is the current probe interval; it doubles (up to 16x the
	// configured ProbeEvery) each time a caching retry immediately fails,
	// and resets when a retry sticks, so procedures under sustained churn
	// spend almost all their time in the cheap bypass mode.
	backoff int
	// stint counts accesses since caching (re)started and retried marks
	// whether the current caching period came from a bypass retry, to
	// detect immediately-failed retries.
	stint   int
	retried bool
	// invalSinceAccess counts invalidations with no intervening access.
	invalSinceAccess int
}

// NewAdaptive builds the strategy with its own cache store and lock table.
func NewAdaptive(mgr *Manager, store *cache.Store) *Adaptive {
	return &Adaptive{
		mgr:                      mgr,
		store:                    store,
		locks:                    ilock.NewManager(),
		Window:                   4,
		ColdThreshold:            0.9,
		ProbeEvery:               16,
		BypassAfterInvalidations: 8,
		states:                   make(map[int]*adaptiveState),
	}
}

// Name implements Strategy.
func (s *Adaptive) Name() string { return "Adaptive Caching" }

// CacheStore exposes the strategy's cache store (telemetry observers
// attach here).
func (s *Adaptive) CacheStore() *cache.Store { return s.store }

// SetTracer attaches a tracer; accesses then tag the enclosing op span
// with the mode taken (hit, cold, or bypass).
func (s *Adaptive) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetLedger attaches a cache-efficacy ledger; accesses then record
// computed/hit/bypass events carrying their meter deltas.
func (s *Adaptive) SetLedger(l *cache.Ledger) { s.ledger = l }

// Prepare implements Strategy: start every procedure in caching mode with
// a warm cache, like Cache and Invalidate.
func (s *Adaptive) Prepare(pg *storage.Pager) {
	for _, id := range s.mgr.IDs() {
		d := s.mgr.MustGet(id)
		s.store.Define(cache.ID(id), d.ResultWidth())
		refresh(pg, d, setupStamp(pg), s.store, s.locks, s.ledger != nil)
		s.states[id] = &adaptiveState{backoff: s.ProbeEvery}
	}
}

// Access implements Strategy. Like CacheInvalidate.Access it decides at
// pg's snapshot (Pager.ReadStamp), and panics without one.
func (s *Adaptive) Access(pg *storage.Pager, id int) [][]byte {
	m := pg.Meter()
	var before metric.Counters
	if s.ledger != nil {
		before = m.Snapshot()
	}
	out, kind, digest := s.access(pg, id)
	if s.afterUnlock != nil {
		s.afterUnlock()
	}
	if s.ledger != nil {
		// Flush so deferred page-write charges land in this access's
		// delta (idempotent; the op-level flush finds the frames clean).
		pg.Flush()
		s.ledger.Record(cache.LedgerEvent{
			Entry:   id,
			Kind:    kind,
			Op:      pg.OpToken(),
			Session: pg.Session(),
			CostMs:  m.Since(before).Milliseconds(m.Costs()),
			Digest:  digest,
		})
	}
	return out
}

func (s *Adaptive) access(pg *storage.Pager, id int) ([][]byte, string, uint64) {
	d := s.mgr.MustGet(id)
	st := s.states[id]
	snap := pg.ReadStamp()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.bypass {
		st.sinceBypass++
		if st.sinceBypass < st.backoff {
			// Plain recomputation; no cache write, no locks.
			s.tracer.Current().Set("cache", "bypass")
			pg.BeginRecompute()
			out := query.Run(d.Plan, &query.Ctx{Meter: pg.Meter(), Pager: pg})
			pg.EndRecompute()
			return out, cache.KindBypass, 0
		}
		// Retry caching.
		st.bypass = false
		st.retried = true
		st.accesses, st.cold, st.sinceBypass, st.stint = 0, 0, 0, 0
		s.tracer.Current().Set("cache", "retry")
		pg.BeginRecompute()
		digest := refresh(pg, d, snap, s.store, s.locks, s.ledger != nil)
		pg.EndRecompute()
		return s.readRefreshed(pg, id, true), cache.KindComputed, digest
	}

	e := s.store.MustEntry(cache.ID(id))
	st.accesses++
	st.stint++
	st.invalSinceAccess = 0
	kind := cache.KindHit
	var digest uint64
	var out [][]byte
	served := false
	usable := e.UsableAt(snap)
	if !usable {
		st.cold++
		s.tracer.Current().Set("cache", "cold")
		pg.BeginRecompute()
		if e.ComputedAt() > snap {
			// The installed value postdates this reader's snapshot:
			// recompute at the snapshot, serve only this session, leave the
			// newer shared value and its i-locks alone (docs/MVCC.md).
			var keys []uint64
			keys, out = query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: pg.Meter(), Pager: pg, Locks: nil})
			digest = cache.ResultDigest(keys, out)
			served = true
		} else {
			digest = refresh(pg, d, snap, s.store, s.locks, s.ledger != nil)
		}
		pg.EndRecompute()
		kind = cache.KindComputed
	} else {
		s.tracer.Current().Set("cache", "hit")
	}
	if !served {
		out = s.readRefreshed(pg, id, !usable)
	}
	if st.accesses >= s.Window {
		if float64(st.cold) > s.ColdThreshold*float64(st.accesses) {
			// Caching is not paying: drop the cached value and its locks.
			st.bypass = true
			st.sinceBypass = 0
			if st.retried && st.stint <= s.Window {
				// The retry failed immediately: back off harder.
				st.backoff *= 2
				if max := 16 * s.ProbeEvery; st.backoff > max {
					st.backoff = max
				}
			} else {
				st.backoff = s.ProbeEvery
			}
			s.locks.Release(ilock.Owner(id))
		} else {
			st.backoff = s.ProbeEvery
			st.retried = false
		}
		st.accesses, st.cold = 0, 0
	}
	return out, kind, digest
}

// readRefreshed reads the cached result (borrowed tuples) and, after a
// refresh, flushes the refresher's frames before the
// state mutex is released: the refresh published the entry's new
// directory, and its pages must be on the disk before the next reader of
// the entry may follow it. (Idempotent: the op-level flush then finds
// the frames clean, so no charge moves.)
func (s *Adaptive) readRefreshed(pg *storage.Pager, id int, flush bool) [][]byte {
	out := s.store.MustEntry(cache.ID(id)).Records(pg)
	if flush {
		pg.Flush()
	}
	return out
}

// OnUpdate implements Strategy: invalidate conflicting cached procedures,
// exactly as Cache and Invalidate does. Bypassed procedures hold no locks,
// so they cost nothing here. Each procedure's state mutates under its
// per-state mutex, which accesses also hold.
func (s *Adaptive) OnUpdate(pg *storage.Pager, dl Delta) {
	rel := dl.Rel.Schema().Name()
	field := dl.Rel.KeyField()
	sch := dl.Rel.Schema()
	hit := make(map[ilock.Owner]struct{})
	for _, tup := range dl.Deleted {
		s.locks.ConflictSet(rel, sch.Get(tup, field), hit)
	}
	for _, tup := range dl.Inserted {
		s.locks.ConflictSet(rel, sch.Get(tup, field), hit)
	}
	// Sorted fan-out: map order must not leak into the ledger's event
	// sequence (docs/DIAGNOSIS.md byte-identity contract).
	owners := make([]int, 0, len(hit))
	for owner := range hit {
		owners = append(owners, int(owner))
	}
	sort.Ints(owners)
	for _, owner := range owners {
		st := s.states[int(owner)]
		st.mu.Lock()
		s.store.MustEntry(cache.ID(owner)).Invalidate(pg)
		st.invalSinceAccess++
		if st.invalSinceAccess >= s.BypassAfterInvalidations {
			// The object churns faster than it is read: stop protecting
			// it. The next access recomputes; backoff as for a failed
			// caching stint.
			st.bypass = true
			st.sinceBypass = 0
			st.invalSinceAccess = 0
			if st.retried && st.stint <= s.Window {
				st.backoff *= 2
				if max := 16 * s.ProbeEvery; st.backoff > max {
					st.backoff = max
				}
			} else {
				st.backoff = s.ProbeEvery
			}
			s.locks.Release(ilock.Owner(owner))
		}
		st.mu.Unlock()
	}
}

// BypassedCount reports how many procedures are currently in bypass mode
// (for tests and diagnostics).
func (s *Adaptive) BypassedCount() int {
	n := 0
	for _, st := range s.states {
		st.mu.Lock()
		if st.bypass {
			n++
		}
		st.mu.Unlock()
	}
	return n
}
