package proc

import (
	"sort"
	"sync"
	"sync/atomic"

	"dbproc/internal/cache"
	"dbproc/internal/ilock"
	"dbproc/internal/metric"
	"dbproc/internal/query"
	"dbproc/internal/storage"
)

// CacheInvalidate serves cached procedure results while they are valid
// (cost T2 = one read of the result pages) and recomputes-and-refreshes on
// access after an invalidating update (cost T1 = plan execution plus a
// read-modify-write of the result pages). Rule indexing sets i-locks on
// everything the plan reads — the B-tree interval of the R1 scan and each
// hash key probed — and a conflicting update invalidates the owning entry
// at C_inval per (procedure, update transaction), the model's T3.
//
// NewAdaptive runs the same cycle under a bypass policy: the per-procedure
// caching decision the paper's section 8 raises via Sellis's work and
// leaves open. A procedure whose recent accesses were almost always cold
// (the C&I plateau regime, where caching costs strictly more than
// recomputing) drops to bypass: it holds no i-locks, and every access
// recomputes with no write-back and no invalidation cost. A bypassed
// procedure periodically retries caching, so it recovers when the update
// rate falls. The paper notes C&I "does not degrade significantly if the
// system makes a mistake"; the policy removes even that residual
// degradation (the wasted write-backs and, with expensive invalidation,
// the whole T3 term).
type CacheInvalidate struct {
	mgr    *Manager
	store  *cache.Store
	locks  *ilock.Manager
	coarse bool
	// adaptive selects the bypass policy; plain Cache and Invalidate
	// always caches.
	adaptive bool

	accesses     atomic.Int64
	coldAccesses atomic.Int64

	// states maps each procedure id to its *entryState, created on first
	// use.
	states sync.Map

	// afterUnlock, when a test sets it, runs right after an access releases
	// the entry mutex — where a second reader of the entry may first run.
	afterUnlock func()
}

// The bypass policy's constants.
const (
	// adaptiveWindow is the number of accesses per mode evaluation.
	adaptiveWindow = 4
	// coldThreshold is the cold-access fraction above which a procedure
	// drops to bypass, near the plateau crossover.
	coldThreshold = 0.9
	// probeEvery is the number of bypassed accesses before caching is
	// retried. The interval doubles, up to 16x, each time a retry fails at
	// once, so procedures under sustained churn spend almost all their time
	// in the cheap bypass mode.
	probeEvery = 16
	// bypassAfterInvalidations drops a procedure to bypass as soon as this
	// many invalidations arrive without an intervening access: with
	// expensive invalidation recording, waiting for the next access to
	// notice the churn wastes a C_inval per conflicting update.
	bypassAfterInvalidations = 8
)

// entryState is one procedure's access mutex and bypass-policy state.
type entryState struct {
	// mu serializes access to the entry's (unversioned) result file:
	// refreshes rewrite it in place at query time, so reads and rewrites of
	// one entry exclude each other. Accesses to different procedures, and
	// readers vs. updates, never meet here (docs/MVCC.md) — except under the
	// bypass policy, whose update fan-out takes mu to mutate the fields
	// below. Lock order is mu before the entry's internal mutex.
	mu     sync.Mutex
	bypass bool
	// accesses and cold count the current evaluation window; sinceBypass
	// counts bypassed accesses up to backoff, the current probe interval.
	accesses, cold, sinceBypass, backoff int
	// stint counts accesses since caching (re)started, and retried marks a
	// caching period that began as a bypass retry, to detect retries that
	// fail at once.
	stint   int
	retried bool
	// invalSinceAccess counts invalidations with no intervening access.
	invalSinceAccess int
}

// NewCacheInvalidate builds the strategy with its own cache store and lock
// table.
func NewCacheInvalidate(mgr *Manager, store *cache.Store) *CacheInvalidate {
	return &CacheInvalidate{mgr: mgr, store: store, locks: ilock.NewManager()}
}

// NewAdaptive builds Cache and Invalidate under the bypass policy.
func NewAdaptive(mgr *Manager, store *cache.Store) *CacheInvalidate {
	s := NewCacheInvalidate(mgr, store)
	s.adaptive = true
	return s
}

func (s *CacheInvalidate) state(id int) *entryState {
	if v, ok := s.states.Load(id); ok {
		return v.(*entryState)
	}
	v, _ := s.states.LoadOrStore(id, new(entryState))
	return v.(*entryState)
}

// AccessStats reports how many procedure accesses the strategy served and
// how many found the cache invalid — the measured counterpart of the
// model's IP.
func (s *CacheInvalidate) AccessStats() (accesses, cold int) {
	return int(s.accesses.Load()), int(s.coldAccesses.Load())
}

// SetCoarseLocks switches invalidation to relation granularity: any update
// to a relation a procedure read invalidates the procedure, without
// checking intervals or keys. This is what a system without rule indexing
// must do; it exists for the ablation experiment quantifying what i-lock
// precision is worth.
func (s *CacheInvalidate) SetCoarseLocks(on bool) { s.coarse = on }

// Name implements Strategy.
func (s *CacheInvalidate) Name() string {
	if s.adaptive {
		return "Adaptive Caching"
	}
	return "Cache and Invalidate"
}

// CacheStore exposes the strategy's cache store (telemetry observers
// attach here).
func (s *CacheInvalidate) CacheStore() *cache.Store { return s.store }

// Prepare implements Strategy: define and warm every cache entry, setting
// its i-locks. Run with charging disabled.
func (s *CacheInvalidate) Prepare(pg *storage.Pager) {
	for _, id := range s.mgr.IDs() {
		s.Adopt(pg, id)
	}
}

// Adopt brings one procedure (defined after Prepare, e.g. interactively)
// under the strategy: its cache entry is created, warmed and i-locked.
// Adopting an already-adopted procedure is a no-op.
func (s *CacheInvalidate) Adopt(pg *storage.Pager, id int) {
	if s.store.Entry(cache.ID(id)) != nil {
		return
	}
	d := s.mgr.MustGet(id)
	s.store.Define(cache.ID(id), d.ResultWidth())
	s.refresh(pg, d, setupStamp(pg))
}

// setupStamp is the stamp a setup-time fill (Prepare, Adopt) computes at:
// setup runs with no update in flight, so what pg reads is the newest
// commit.
func setupStamp(pg *storage.Pager) uint64 { return pg.Disk().CommitStamp() }

// lockSink collects what a plan execution reads as i-lock refs for one
// owner; the caller installs them afterwards with ReplaceOwner, so the old
// footprint stays in place for the whole recompute and conflict probes
// never find a window with no locks.
type lockSink struct {
	refs []ilock.Ref
	// seenKeys dedupes key locks within one computation: probing the same
	// hash key twice needs one lock.
	seenKeys map[string]map[int64]struct{}
}

func (ls *lockSink) ReadRange(rel string, lo, hi int64) {
	ls.refs = append(ls.refs, ilock.Ref{Rel: rel, Lo: lo, Hi: hi})
}

func (ls *lockSink) ReadKey(rel string, key int64) {
	if ls.seenKeys == nil {
		ls.seenKeys = make(map[string]map[int64]struct{})
	}
	m := ls.seenKeys[rel]
	if m == nil {
		m = make(map[int64]struct{})
		ls.seenKeys[rel] = m
	}
	if _, dup := m[key]; dup {
		return
	}
	m[key] = struct{}{}
	ls.refs = append(ls.refs, ilock.Ref{Rel: rel, Lo: key, Hi: key, IsKey: true})
}

// refresh recomputes d's value at stamp snap, installs it in its entry,
// and swaps the owner's i-locks to cover everything read (adds before
// removes, so the footprint never transiently disappears). The install
// goes through ReplaceAt, which applies the install guard; callers hold
// the entry's access mutex, so the recompute/replace sequence is
// single-flight. It returns the result digest when the store has a
// ledger, 0 otherwise.
func (s *CacheInvalidate) refresh(pg *storage.Pager, d *Definition, snap uint64) uint64 {
	sink := &lockSink{}
	keys, recs := query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: pg.Meter(), Pager: pg, Locks: sink})
	s.locks.ReplaceOwner(ilock.Owner(d.ID), sink.refs)
	s.store.MustEntry(cache.ID(d.ID)).ReplaceAt(pg, keys, recs, snap)
	if s.store.LedgerRef() == nil {
		return 0
	}
	return cache.ResultDigest(keys, recs)
}

// Access implements Strategy: serve the cache when usable at the
// session's snapshot, otherwise recompute. The entry's access mutex
// serializes readers and refreshers of the same (unversioned) result
// file; when the cached value was installed at a newer stamp than this
// reader's snapshot, the reader recomputes at its own snapshot and serves
// itself without touching the shared file or the owner's i-locks
// (docs/MVCC.md). pg must be reading at a snapshot (Pager.ReadStamp).
//
// A traced pager gets the enclosing op span tagged with the cache state
// and a ci.refresh child span on cold paths. When the store has a ledger,
// every access records a computed (cold, with result digest), hit or
// bypass event carrying its meter delta, so the ledger's event costs sum
// to the strategy's run total.
func (s *CacheInvalidate) Access(pg *storage.Pager, id int) [][]byte {
	snap := pg.ReadStamp()
	s.accesses.Add(1)
	m := pg.Meter()
	l := s.store.LedgerRef()
	var before metric.Counters
	if l != nil {
		before = m.Snapshot()
	}
	out, kind, digest := s.access(pg, id, snap)
	if s.afterUnlock != nil {
		s.afterUnlock()
	}
	if l != nil {
		// Page writes are charged at flush time; flush now (idempotent —
		// the op-level flush then finds the frames clean) so the deferred
		// write charges land inside this access's delta.
		pg.Flush()
		l.Record(cache.LedgerEvent{
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

// access runs one access under the entry's mutex and returns the result,
// its ledger kind and, for a recompute with a ledger attached, the result
// digest.
func (s *CacheInvalidate) access(pg *storage.Pager, id int, snap uint64) ([][]byte, string, uint64) {
	t := pg.Tracer()
	d := s.mgr.MustGet(id)
	e := s.store.MustEntry(cache.ID(id))
	st := s.state(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	retry := false
	if st.bypass {
		if st.sinceBypass++; st.sinceBypass < st.backoff {
			// Plain recomputation; no cache write, no locks.
			t.Current().Set("cache", "bypass")
			pg.BeginRecompute()
			out := query.Run(d.Plan, &query.Ctx{Meter: pg.Meter(), Pager: pg})
			pg.EndRecompute()
			return out, cache.KindBypass, 0
		}
		// Retry caching. A bypassed procedure held no i-locks, so its stale
		// entry may still read as usable: the retry refreshes whatever
		// UsableAt says.
		retry = true
		st.bypass, st.retried = false, true
		st.accesses, st.cold, st.sinceBypass, st.stint = 0, 0, 0, 0
	}
	kind, digest := cache.KindHit, uint64(0)
	var out [][]byte
	served := false
	cold := retry || !e.UsableAt(snap)
	if cold {
		kind = cache.KindComputed
		s.coldAccesses.Add(1)
		if retry {
			t.Current().Set("cache", "retry")
		} else {
			t.Current().Set("cache", "cold")
		}
		sp := t.Begin("ci.refresh")
		sp.Set("proc", id)
		pg.BeginRecompute()
		if !retry && e.ComputedAt() > snap {
			// The installed value postdates this reader's snapshot:
			// recompute at the snapshot and serve only this session, leaving
			// the newer shared value (and its i-locks) untouched.
			sp.Set("mode", "self")
			var keys []uint64
			keys, out = query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: pg.Meter(), Pager: pg})
			if s.store.LedgerRef() != nil {
				digest = cache.ResultDigest(keys, out)
			}
			served = true
		} else {
			digest = s.refresh(pg, d, snap)
		}
		pg.EndRecompute()
		t.End(sp)
	} else {
		t.Current().Set("cache", "hit")
	}
	if !served {
		out = e.Records(pg)
	}
	if cold && !served {
		// The refresh published the entry's new directory; its pages must
		// be on the disk before the next reader of this entry may follow
		// it. (Idempotent: the op-level flush then finds the frames clean,
		// so no charge moves.)
		pg.Flush()
	}
	if s.adaptive && !retry {
		s.tally(st, id, cold)
	}
	return out, kind, digest
}

// tally feeds one caching-mode access to the bypass policy: every
// adaptiveWindow accesses, a procedure more than coldThreshold of whose
// accesses were cold drops to bypass.
func (s *CacheInvalidate) tally(st *entryState, id int, cold bool) {
	st.accesses++
	st.stint++
	st.invalSinceAccess = 0
	if cold {
		st.cold++
	}
	if st.accesses < adaptiveWindow {
		return
	}
	if float64(st.cold) > coldThreshold*float64(st.accesses) {
		s.drop(st, id)
	} else {
		st.backoff = probeEvery
		st.retried = false
	}
	st.accesses, st.cold = 0, 0
}

// drop puts a procedure in bypass and releases its i-locks. A caching
// stint that was a retry and failed within one window backs off harder.
func (s *CacheInvalidate) drop(st *entryState, id int) {
	st.bypass = true
	st.sinceBypass, st.invalSinceAccess = 0, 0
	if st.retried && st.stint <= adaptiveWindow {
		st.backoff = min(2*st.backoff, 16*probeEvery)
	} else {
		st.backoff = probeEvery
	}
	s.locks.Release(ilock.Owner(id))
}

// OnUpdate implements Strategy: record one invalidation per procedure per
// transaction for every procedure the update conflicts with. Cache and
// Invalidate takes no access mutex here, so an update never waits behind
// a query-time refresh. The bypass policy takes it to count invalidations
// and drops a procedure that churns faster than it is read; bypassed
// procedures hold no i-locks, so they cost nothing here.
func (s *CacheInvalidate) OnUpdate(pg *storage.Pager, dl Delta) {
	for _, id := range s.conflicts(dl) {
		e := s.store.MustEntry(cache.ID(id))
		if !s.adaptive {
			e.Invalidate(pg)
			continue
		}
		st := s.state(id)
		st.mu.Lock()
		e.Invalidate(pg)
		if st.invalSinceAccess++; st.invalSinceAccess >= bypassAfterInvalidations {
			s.drop(st, id)
		}
		st.mu.Unlock()
	}
}

// conflicts returns the procedures an update invalidates, in a fixed
// order (definition order under coarse locks, else ascending): the
// conflict set's map order would otherwise leak into the ledger's event
// sequence and break its byte-identity contract (docs/DIAGNOSIS.md).
func (s *CacheInvalidate) conflicts(dl Delta) []int {
	if s.coarse {
		// Relation-granularity invalidation: every procedure read some
		// relation this update touched (in this system all procedures
		// read R1, and P2 procedures read R2/R3), so all are invalidated.
		return s.mgr.IDs()
	}
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
	owners := make([]int, 0, len(hit))
	for owner := range hit {
		owners = append(owners, int(owner))
	}
	sort.Ints(owners)
	return owners
}

// Locks exposes the lock table (for tests and diagnostics).
func (s *CacheInvalidate) Locks() *ilock.Manager { return s.locks }
