package proc

import (
	"sort"
	"sync"
	"sync/atomic"

	"dbproc/internal/cache"
	"dbproc/internal/ilock"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
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
type CacheInvalidate struct {
	mgr    *Manager
	store  *cache.Store
	locks  *ilock.Manager
	coarse bool
	tracer *obs.Tracer
	ledger *cache.Ledger

	accesses     atomic.Int64
	coldAccesses atomic.Int64

	// entryMu serializes access to each entry's (unversioned) result file:
	// refreshes rewrite it in place at query time, so reads and rewrites of
	// one entry exclude each other. Accesses to different procedures, and
	// readers vs. updates, never meet here (docs/MVCC.md).
	entryMu sync.Map // proc id -> *sync.Mutex

	// afterUnlock, when a test sets it, runs right after an access releases
	// the entry mutex — where a second reader of the entry may first run.
	afterUnlock func()
}

func (s *CacheInvalidate) entryLock(id int) *sync.Mutex {
	if v, ok := s.entryMu.Load(id); ok {
		return v.(*sync.Mutex)
	}
	v, _ := s.entryMu.LoadOrStore(id, &sync.Mutex{})
	return v.(*sync.Mutex)
}

// SetTracer attaches a tracer; accesses then tag the enclosing op span
// with the cache state and record a ci.refresh child span on cold paths.
func (s *CacheInvalidate) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetLedger attaches a cache-efficacy ledger; every access then records
// a computed (cold, with result digest) or hit event carrying its meter
// delta, so the ledger's event costs sum to the strategy's run total.
func (s *CacheInvalidate) SetLedger(l *cache.Ledger) { s.ledger = l }

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

// NewCacheInvalidate builds the strategy with its own cache store and lock
// table.
func NewCacheInvalidate(mgr *Manager, store *cache.Store) *CacheInvalidate {
	return &CacheInvalidate{
		mgr:   mgr,
		store: store,
		locks: ilock.NewManager(),
	}
}

// Name implements Strategy.
func (s *CacheInvalidate) Name() string { return "Cache and Invalidate" }

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
	refresh(pg, d, setupStamp(pg), s.store, s.locks, s.ledger != nil)
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

// refresh recomputes d's value at stamp snap, installs it in its entry of
// store, and swaps the owner's i-locks in locks to cover everything read
// (adds before removes, so the footprint never transiently disappears) —
// the refresh both C&I and Adaptive run. The install goes through
// ReplaceAt, which applies the install guard; callers hold the entry's
// access mutex, so the recompute/replace sequence is single-flight. It
// returns the result digest when digest is set (a ledger is attached), 0
// otherwise.
func refresh(pg *storage.Pager, d *Definition, snap uint64, store *cache.Store, locks *ilock.Manager, digest bool) uint64 {
	sink := &lockSink{}
	keys, recs := query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: pg.Meter(), Pager: pg, Locks: sink})
	locks.ReplaceOwner(ilock.Owner(d.ID), sink.refs)
	store.MustEntry(cache.ID(d.ID)).ReplaceAt(pg, keys, recs, snap)
	if !digest {
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
func (s *CacheInvalidate) Access(pg *storage.Pager, id int) [][]byte {
	d := s.mgr.MustGet(id)
	e := s.store.MustEntry(cache.ID(id))
	snap := pg.ReadStamp()
	s.accesses.Add(1)
	m := pg.Meter()
	var before metric.Counters
	if s.ledger != nil {
		before = m.Snapshot()
	}
	mu := s.entryLock(id)
	mu.Lock()
	var digest uint64
	var out [][]byte
	served := false
	cold := !e.UsableAt(snap)
	if cold {
		s.coldAccesses.Add(1)
		s.tracer.Current().Set("cache", "cold")
		sp := s.tracer.Begin("ci.refresh")
		sp.Set("proc", id)
		pg.BeginRecompute()
		if e.ComputedAt() > snap {
			// The installed value postdates this reader's snapshot:
			// recompute at the snapshot and serve only this session, leaving
			// the newer shared value (and its i-locks) untouched.
			sp.Set("mode", "self")
			var keys []uint64
			keys, out = query.Materialize(d.Plan, d.ResultKey, &query.Ctx{Meter: pg.Meter(), Pager: pg, Locks: nil})
			digest = cache.ResultDigest(keys, out)
			served = true
		} else {
			digest = refresh(pg, d, snap, s.store, s.locks, s.ledger != nil)
		}
		pg.EndRecompute()
		s.tracer.End(sp)
	} else {
		s.tracer.Current().Set("cache", "hit")
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
	mu.Unlock()
	if s.afterUnlock != nil {
		s.afterUnlock()
	}
	if s.ledger != nil {
		// Page writes are charged at flush time; flush now (idempotent —
		// the op-level flush then finds the frames clean) so the deferred
		// write charges land inside this access's delta.
		pg.Flush()
		ev := cache.LedgerEvent{
			Entry:   id,
			Op:      pg.OpToken(),
			Session: pg.Session(),
			CostMs:  m.Since(before).Milliseconds(m.Costs()),
		}
		if cold {
			ev.Kind, ev.Digest = cache.KindComputed, digest
		} else {
			ev.Kind = cache.KindHit
		}
		s.ledger.Record(ev)
	}
	return out
}

// OnUpdate implements Strategy: find every procedure whose i-locks the
// transaction's old or new tuple values conflict with and record one
// invalidation per procedure per transaction.
func (s *CacheInvalidate) OnUpdate(pg *storage.Pager, dl Delta) {
	if s.coarse {
		// Relation-granularity invalidation: every procedure read some
		// relation this update touched (in this system all procedures
		// read R1, and P2 procedures read R2/R3), so all are invalidated.
		for _, id := range s.mgr.IDs() {
			s.store.MustEntry(cache.ID(id)).Invalidate(pg)
		}
		return
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
	// Invalidate in sorted order: the set's map order would otherwise
	// leak into the ledger's event sequence and break its byte-identity
	// contract (docs/DIAGNOSIS.md).
	owners := make([]int, 0, len(hit))
	for owner := range hit {
		owners = append(owners, int(owner))
	}
	sort.Ints(owners)
	for _, owner := range owners {
		s.store.MustEntry(cache.ID(owner)).Invalidate(pg)
	}
}

// Locks exposes the lock table (for tests and diagnostics).
func (s *CacheInvalidate) Locks() *ilock.Manager { return s.locks }
