// Package cache stores materialized procedure results on disk pages: the
// entries Cache and Invalidate refreshes at query time and invalidates,
// whose visibility a snapshot reader decides from the entry's stamps, and
// the always-valid entries Update Cache maintains inside update epochs.
// Validity lives in memory only; nothing survives a restart.
//
// Each entry is a key-clustered file of result tuples (storage.OrderedFile)
// so differential maintenance touches only the pages holding the changed
// tuples, as the cost model's y(fN, fb, 2fl) refresh term assumes. Reading
// an entry charges one page read per result page (the model's C_read);
// recording an invalidation charges C_inval through the meter.
//
// Metered I/O and cost events go through the calling session's pager,
// passed per call: one shared store serves concurrent sessions, each
// charging its own meter.
package cache

import (
	"fmt"
	"sync"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
)

// ID identifies a cached object; procedure IDs are used directly.
type ID int

// Store is the set of cached procedure results. The entry table itself is
// safe for concurrent lookup; each entry's validity transitions are
// individually atomic (see Entry).
type Store struct {
	mu         sync.RWMutex
	disk       *storage.Disk
	entries    map[ID]*Entry
	observer   func(event string, id, session int)
	ledger     *Ledger
	maintained bool
}

// SetMaintained declares that entry contents are mutated only inside
// update epochs (AVM/RVM differential maintenance), so their files stay
// MVCC-versioned and snapshot readers resolve them by stamp. Call before
// Define. Stores left unmaintained (C&I, Adaptive) rewrite entry files at
// query time under the entry mutex, so their files opt out of directory
// versioning and visibility is decided by the entry's stamps instead
// (docs/MVCC.md).
func (s *Store) SetMaintained() { s.maintained = true }

// SetObserver registers a callback notified on every validity transition
// ("cache.invalidate" / "cache.refresh") — the flight recorder's cache
// feed; session is the acting pager's session tag (-1 outside the
// engine). Set it before the store is shared between sessions: the field
// is read without synchronization on the hot path, and the callback runs
// with the entry's mutex held, so it must not call back into the entry.
func (s *Store) SetObserver(fn func(event string, id, session int)) { s.observer = fn }

// SetLedger attaches a cache-efficacy ledger; every subsequent
// invalidation records a KindInvalidated event naming the invalidating
// op, and the strategies holding the store record their events on it
// (LedgerRef). Like SetObserver, set it before the store is shared between
// sessions — the field is read without synchronization on the hot path.
func (s *Store) SetLedger(l *Ledger) { s.ledger = l }

// LedgerRef returns the attached ledger (nil when none).
func (s *Store) LedgerRef() *Ledger { return s.ledger }

// Entry is one procedure's cached result. The mu mutex makes each
// validity transition (an invalidation, an install) atomic against
// concurrent visibility checks. It does not guard the contents: file I/O
// runs on the calling session's pager over the shared disk. A maintained
// entry's file is versioned and mutated only inside update epochs; an
// unmaintained entry's file is rewritten at query time, so its strategy
// serializes the reads and rewrites of one entry under its own per-entry
// access mutex (docs/MVCC.md).
type Entry struct {
	id    ID
	store *Store
	file  *storage.OrderedFile

	mu    sync.Mutex
	valid bool
	// MVCC visibility state (docs/MVCC.md): contents were computed at
	// snapshot stamp computedAt, and invals holds the ascending stamps of
	// invalidations recorded since, trimmed at each install. A snapshot
	// reader at S may serve the contents iff computedAt <= S and no inval
	// stamp lies in (computedAt, S]. All three fields are guarded by mu.
	hasData    bool
	computedAt uint64
	invals     []uint64
}

// NewStore creates an empty cache over the given disk.
func NewStore(disk *storage.Disk) *Store {
	return &Store{disk: disk, entries: make(map[ID]*Entry)}
}

// Define creates an (invalid, empty) entry for id whose file holds
// recSize-byte result tuples, perPage to a page (the blocking factor the
// model's tuple width sets). Defining an existing id panics.
func (s *Store) Define(id ID, recSize, perPage int) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[id]; dup {
		panic(fmt.Sprintf("cache: entry %d already defined", id))
	}
	e := &Entry{
		id:    id,
		store: s,
		file:  storage.NewOrderedFile(s.disk, recSize, perPage),
	}
	if !s.maintained {
		e.file.Unversion()
	}
	s.entries[id] = e
	return e
}

// Entry returns the entry for id, or nil.
func (s *Store) Entry(id ID) *Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries[id]
}

// MustEntry returns the entry for id or panics.
func (s *Store) MustEntry(id ID) *Entry {
	e := s.Entry(id)
	if e == nil {
		panic(fmt.Sprintf("cache: entry %d not defined", id))
	}
	return e
}

// Len returns the number of defined entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Valid reports the entry's newest validity flag: false from an
// invalidation until the next clean install. Whether a reader may serve
// the contents is UsableAt's question, asked at the reader's snapshot.
func (e *Entry) Valid() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.valid
}

// File exposes the underlying result file for differential maintenance.
func (e *Entry) File() *storage.OrderedFile { return e.file }

// Pages returns the current size of the result in pages.
func (e *Entry) Pages() int { return e.file.Pages() }

// Len returns the number of result tuples.
func (e *Entry) Len() int { return e.file.Len() }

// Invalidate marks the entry invalid and charges one invalidation record
// (the model's C_inval) to the acting session's meter. The paper's T3
// term charges every conflicting update, so callers invoke this once per
// update transaction that breaks one of the entry's i-locks, whether or
// not the entry is already invalid. The charge is attributed to proc/ci.
func (e *Entry) Invalidate(pg *storage.Pager) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.valid = false
	// Stamp the invalidation with a lower bound on the invalidating update's
	// commit sequence: CommitStamp()+1. The update publishes at some csn >=
	// that bound, and no snapshot can be acquired strictly between the
	// bound and csn (stamps only advance at publish), so every visibility
	// comparison against the bound decides exactly as it would against csn
	// (docs/MVCC.md).
	r := e.store.disk.CommitStamp() + 1
	if n := len(e.invals); n == 0 || e.invals[n-1] < r {
		e.invals = append(e.invals, r)
	}
	m := pg.Meter()
	var before metric.Counters
	if e.store.ledger != nil {
		before = m.Snapshot()
	}
	prev := m.SetComponent(metric.CompProc)
	m.Invalidation(1)
	m.SetComponent(prev)
	if l := e.store.ledger; l != nil {
		l.Record(LedgerEvent{
			Entry:   int(e.id),
			Kind:    KindInvalidated,
			Op:      pg.OpToken(),
			Session: pg.Session(),
			CostMs:  m.Since(before).Milliseconds(m.Costs()),
		})
	}
	if fn := e.store.observer; fn != nil {
		fn("cache.invalidate", int(e.id), pg.Session())
	}
}

// ReplaceAt installs a whole result — the Cache and Invalidate refresh,
// and every entry's initial fill. It rewrites the contents from sorted
// (key, tuple) pairs computed at snapshot stamp snap, costing two I/Os
// per result page (read-modify-write, the model's C_WriteCache)
// attributed to the cache component, then decides visibility. When no
// update committed or is in flight since snap — the install guard — the
// result is current and the entry becomes
// usable from snap onward (clean install, returns true). Otherwise the
// result may already be stale for later snapshots, so a synthetic
// invalidation at snap+1 confines its visibility to snapshot snap exactly
// (the computing session and any concurrent reader at the same stamp, for
// whom it is correct by construction); later readers recompute. See
// docs/MVCC.md.
func (e *Entry) ReplaceAt(pg *storage.Pager, keys []uint64, recs [][]byte, snap uint64) bool {
	m := pg.Meter()
	prev := m.SetComponent(metric.CompCache)
	e.file.Replace(pg, keys, recs)
	m.SetComponent(prev)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.hasData = true
	e.computedAt = snap
	// Invalidations at or before snap are subsumed: the new contents were
	// computed from a snapshot that includes those updates.
	trim := 0
	for trim < len(e.invals) && e.invals[trim] <= snap {
		trim++
	}
	e.invals = append(e.invals[:0], e.invals[trim:]...)
	clean := e.store.disk.CommitStamp() == snap && !e.store.disk.UpdateInFlight()
	if !clean && (len(e.invals) == 0 || e.invals[0] > snap+1) {
		e.invals = append([]uint64{snap + 1}, e.invals...)
	}
	e.valid = clean && len(e.invals) == 0
	if fn := e.store.observer; fn != nil {
		fn("cache.refresh", int(e.id), pg.Session())
	}
	return e.valid
}

// UsableAt reports whether a snapshot reader at stamp s may serve the
// cached contents: they were computed at or before s and no invalidation
// has been recorded in (computedAt, s]: the paper's validity rule, read
// at a snapshot.
func (e *Entry) UsableAt(s uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hasData && e.computedAt <= s && (len(e.invals) == 0 || e.invals[0] > s)
}

// ComputedAt returns the snapshot stamp the current contents were
// computed at (0 before any stamped install).
func (e *Entry) ComputedAt() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.computedAt
}

// MarkValid marks the entry valid without touching its contents; Update
// Cache uses it once after the initial load, after which maintenance keeps
// the contents current.
func (e *Entry) MarkValid(pg *storage.Pager) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.valid = true
	e.hasData = true
	e.invals = e.invals[:0]
	e.computedAt = e.store.disk.CommitStamp()
	if fn := e.store.observer; fn != nil {
		fn("cache.refresh", int(e.id), pg.Session())
	}
}

// ReadAll scans the cached result in key order (one charged read per
// page, attributed to the cache component), regardless of validity —
// callers check Valid first. The rec slice is only valid during the
// callback.
func (e *Entry) ReadAll(pg *storage.Pager, fn func(key uint64, rec []byte) bool) {
	m := pg.Meter()
	prev := m.SetComponent(metric.CompCache)
	defer m.SetComponent(prev)
	e.file.Scan(pg, fn)
}

// Records returns the cached result in key order with ReadAll's charges,
// regardless of validity. The tuples are borrowed from the page images
// read (storage.OrderedFile.Records): read-only, valid until pg's next
// BeginOp and the close of its scope, copy to keep.
func (e *Entry) Records(pg *storage.Pager) [][]byte {
	m := pg.Meter()
	prev := m.SetComponent(metric.CompCache)
	defer m.SetComponent(prev)
	return e.file.Records(pg)
}
