// Package engine is the concurrent multi-session access layer over the
// simulator's strategies: N client sessions submit update transactions and
// procedure accesses against one shared world, and the engine guarantees
// that the result is equivalent to some serial order of the submitted
// operations (the contract docs/CONCURRENCY.md states per strategy, and
// the serializability oracle in this package checks).
//
// Synchronization is layered:
//
//  1. a sharded lock table of named reader/writer locks — one per base
//     relation, plus the version GC's — that updates acquire in canonical
//     name order (conservative two-phase locking, deadlock-free by
//     ordering); queries take none and read at a snapshot instead;
//  2. subsystem mutexes inside ilock, cache, avm and rete that make each
//     shared structure individually safe, and the per-entry access
//     mutexes of C&I's access cycle (Adaptive's too);
//  3. immutable page images in the storage layer — a page of the shared
//     disk changes only by an atomic swap to a new image, and an update's
//     images become visible all at once when its epoch publishes — plus a
//     private pager and cost meter per session, so operation bodies run
//     physically in parallel; a small commit mutex orders only the
//     commit step itself (sequence draw, publish, history append,
//     aggregate merge).
package engine

import (
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbproc/internal/telemetry"
)

// RelLock names the lock-table resource for a base relation.
func RelLock(rel string) string { return "rel:" + rel }

// Footprint is the set of named resources one operation locks, each in
// shared or exclusive mode. Build it with Shared/Exclusive, then hand it
// to LockTable.Acquire.
type Footprint struct {
	names []string
	excl  []bool
	// canonical marks names as sorted and deduplicated: what normalized
	// returns, and what Acquire takes as it stands.
	canonical bool
}

// Shared adds resources locked in shared (reader) mode.
func (f *Footprint) Shared(names ...string) {
	for _, n := range names {
		f.names = append(f.names, n)
		f.excl = append(f.excl, false)
	}
	f.canonical = false
}

// Exclusive adds resources locked in exclusive (writer) mode.
func (f *Footprint) Exclusive(names ...string) {
	for _, n := range names {
		f.names = append(f.names, n)
		f.excl = append(f.excl, true)
	}
	f.canonical = false
}

// normalized returns the footprint in canonical acquisition order —
// sorted by name and deduplicated, a resource named both shared and
// exclusive being exclusive — in slices of its own: the receiver's are
// left untouched. A footprint that is already canonical, or too small not
// to be, is returned as it stands.
func (f Footprint) normalized() Footprint {
	if f.canonical || len(f.names) < 2 {
		f.canonical = true
		return f
	}
	c := &byName{names: slices.Clone(f.names), excl: slices.Clone(f.excl), canonical: true}
	sort.Sort(c)
	n := 0
	for i, name := range c.names {
		if n > 0 && c.names[n-1] == name {
			c.excl[n-1] = c.excl[n-1] || c.excl[i]
			continue
		}
		c.names[n], c.excl[n] = name, c.excl[i]
		n++
	}
	c.names, c.excl = c.names[:n:n], c.excl[:n:n] // clipped: a caller that adds to it reallocates
	return Footprint(*c)
}

// byName sorts a footprint's names, carrying each mode with its name.
type byName Footprint

func (s *byName) Len() int           { return len(s.names) }
func (s *byName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *byName) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.excl[i], s.excl[j] = s.excl[j], s.excl[i]
}

// lockShards stripes the name→lock map so sessions creating or looking up
// locks for disjoint resources rarely contend on map access.
const lockShards = 16

// LockTable is a table of named reader/writer locks, sharded by name
// hash. Locks are created on first use and live for the table's lifetime
// (the name space — relations plus cache entries — is small and fixed).
//
// Every acquisition feeds the contention profiler: a lock is tried
// before it is waited for, so only a real wait is timed, and each lock
// streams wall-clock wait/hold statistics. An uncontended set costs two
// clock reads, one at acquire and one at release.
type LockTable struct {
	seed   maphash.Seed
	shards [lockShards]lockShard
	// epoch is the origin of the table's monotonic clock (now).
	epoch time.Time
}

// namedLock is one named RWMutex plus its streaming contention profile.
// The counters are atomics: waiters on other locks update them while the
// mutex itself is held or contended.
type namedLock struct {
	mu   sync.RWMutex
	name string

	// shared and exclusive count acquisitions by mode: one add each.
	shared    atomic.Int64
	exclusive atomic.Int64
	contended atomic.Int64
	waitNs    atomic.Int64
	holdNs    atomic.Int64
	maxWaitNs atomic.Int64
	maxHoldNs atomic.Int64
	// holder names the session/op that most recently acquired the lock
	// with a blame tag (AcquireAs). Readers store here too: a writer
	// blocked behind a read-held lock blames the latest reader. The tag
	// is never cleared on release — the waiter that sampled it may
	// publish the blame edge after the holder has moved on, which is
	// exactly the "who made me wait" question the edge answers.
	holder atomic.Pointer[holderTag]
}

// holderTag identifies a blame-tagged acquirer.
type holderTag struct {
	session int
	op      string
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

type lockShard struct {
	mu    sync.Mutex
	locks map[string]*namedLock
}

// NewLockTable returns an empty table.
func NewLockTable() *LockTable {
	t := &LockTable{seed: maphash.MakeSeed(), epoch: time.Now()}
	for i := range t.shards {
		t.shards[i].locks = make(map[string]*namedLock)
	}
	return t
}

// now reads the table's clock: ns since its epoch.
func (t *LockTable) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// lock returns the lock for name, creating it if needed.
func (t *LockTable) lock(name string) *namedLock {
	s := &t.shards[maphash.String(t.seed, name)%lockShards]
	s.mu.Lock()
	l := s.locks[name]
	if l == nil {
		l = &namedLock{name: name}
		s.locks[name] = l
	}
	s.mu.Unlock()
	return l
}

// LockWait reports one lock's wall-clock acquisition wait within a Held
// set (zero waits are omitted). When the waited-for lock's holder carried
// a blame tag (AcquireAs), HolderSession/HolderOp name it: the session/op
// that held (or, for read-held locks, last acquired) the lock when the
// wait began.
type LockWait struct {
	Lock   string
	WaitNs int64
	// HolderSession is -1 and HolderOp "unknown" when no tagged
	// acquisition preceded the wait (an untagged holder, or a spurious
	// TryRLock failure); on a real block behind a tagged holder, the
	// holder's tag store happens-before our acquisition, so the edge
	// resolves.
	HolderSession int
	HolderOp      string
}

// Held is a set of acquired locks; Release drops them all. The blame tag
// and, for footprints of up to four locks, the lock slots and their
// acquisition times live inline, so an uncontended Acquire costs one
// allocation (TestUpdateFootprintBuiltOnce).
type Held struct {
	t     *LockTable
	locks []*namedLock
	excl  []bool
	// acquired[i] is when lock i was taken, on the table's clock, for
	// hold measurement.
	acquired []int64
	waits    []LockWait
	// tag is what the held locks' holder pointers point at. It is never
	// written after acquisition: a waiter may resolve it after Release.
	tag       holderTag
	inline    [4]*namedLock
	inlineAcq [4]int64
}

// Acquire takes every lock in the footprint — shared or exclusive as
// requested — in canonical name order. Because every caller acquires in
// the same global order, no cycle of waiters can form and the table is
// deadlock-free. The footprint must name the operation's entire read and
// write set up front (conservative two-phase locking).
func (t *LockTable) Acquire(f Footprint) *Held {
	return t.AcquireAs(f, -1, "")
}

// AcquireAs is Acquire with a blame tag: each lock taken records
// (session, op) as its latest holder, and each wait resolves the tag the
// conflicting holder left, yielding the LockWait's blame edge. An empty
// op leaves the holders as they were.
// The footprint is read, never written: one canonical footprint may be
// handed to concurrent acquirers.
func (t *LockTable) AcquireAs(f Footprint, session int, op string) *Held {
	f = f.normalized()
	n := len(f.names)
	h := &Held{t: t, excl: f.excl, tag: holderTag{session: session, op: op}}
	if n <= len(h.inline) {
		h.locks, h.acquired = h.inline[:n], h.inlineAcq[:n]
	} else {
		h.locks, h.acquired = make([]*namedLock, n), make([]int64, n)
	}
	// now is the latest clock read: it moves only when a wait is timed,
	// so a lock taken without waiting is stamped with it.
	now := t.now()
	for i, name := range f.names {
		l := t.lock(name)
		var wait int64
		var blame *holderTag
		if f.excl[i] {
			if !l.mu.TryLock() {
				// Sample the holder before blocking: blame names who held
				// the lock when the wait began, not whoever released last.
				blame = l.holder.Load()
				t0 := t.now()
				l.mu.Lock()
				now = t.now()
				wait = now - t0
			}
			l.exclusive.Add(1)
		} else {
			if !l.mu.TryRLock() {
				blame = l.holder.Load()
				t0 := t.now()
				l.mu.RLock()
				now = t.now()
				wait = now - t0
			}
			l.shared.Add(1)
		}
		if wait > 0 && blame == nil {
			// The pre-block sample raced the holder's tag store; re-sample
			// before publishing our own tag — the conflicting acquisition
			// stored its tag before releasing, which happens-before us.
			blame = l.holder.Load()
		}
		if op != "" {
			l.holder.Store(&h.tag)
		}
		if wait > 0 {
			l.contended.Add(1)
			l.waitNs.Add(wait)
			atomicMax(&l.maxWaitNs, wait)
			lw := LockWait{Lock: name, WaitNs: wait, HolderSession: -1, HolderOp: "unknown"}
			if blame != nil {
				lw.HolderSession, lw.HolderOp = blame.session, blame.op
			}
			h.waits = append(h.waits, lw)
		}
		h.acquired[i] = now
		h.locks[i] = l
	}
	return h
}

// Waits returns the nonzero wall-clock waits incurred acquiring this
// set, in acquisition order.
func (h *Held) Waits() []LockWait { return h.waits }

// Release drops the held locks in reverse acquisition order, charging
// each its hold time, and returns the hold of the set as a whole: from
// its last acquisition, when the footprint was complete, to now.
func (h *Held) Release() (holdNs int64) {
	end := h.t.now()
	if n := len(h.acquired); n > 0 {
		holdNs = end - h.acquired[n-1]
	}
	for i := len(h.locks) - 1; i >= 0; i-- {
		l := h.locks[i]
		if h.excl[i] {
			l.mu.Unlock()
		} else {
			l.mu.RUnlock()
		}
		held := end - h.acquired[i]
		l.holdNs.Add(held)
		atomicMax(&l.maxHoldNs, held)
	}
	h.locks, h.excl, h.acquired = nil, nil, nil
	return holdNs
}

// LockContention is one lock's accumulated contention profile.
type LockContention struct {
	Name      string
	Acquires  int64
	Exclusive int64
	Contended int64
	WaitNs    int64
	HoldNs    int64
	MaxWaitNs int64
	MaxHoldNs int64
}

// Contention snapshots every lock's profile, sorted by total wait time
// (descending) then name. Empty when nothing was acquired. Safe to call
// while a run is live — the counters are atomics, so a mid-run snapshot
// is approximate but internally consistent per counter.
func (t *LockTable) Contention() []LockContention {
	var out []LockContention
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, l := range s.locks {
			excl := l.exclusive.Load()
			if n := excl + l.shared.Load(); n > 0 {
				out = append(out, LockContention{
					Name:      l.name,
					Acquires:  n,
					Exclusive: excl,
					Contended: l.contended.Load(),
					WaitNs:    l.waitNs.Load(),
					HoldNs:    l.holdNs.Load(),
					MaxWaitNs: l.maxWaitNs.Load(),
					MaxHoldNs: l.maxHoldNs.Load(),
				})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitNs != out[j].WaitNs {
			return out[i].WaitNs > out[j].WaitNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ContentionJSON converts a contention profile to its export form,
// computing each lock's share of the total wait time.
func ContentionJSON(cs []LockContention) []telemetry.LockContentionJSON {
	var totalWait int64
	for _, c := range cs {
		totalWait += c.WaitNs
	}
	out := make([]telemetry.LockContentionJSON, len(cs))
	for i, c := range cs {
		out[i] = telemetry.LockContentionJSON{
			Name:      c.Name,
			Acquires:  c.Acquires,
			Exclusive: c.Exclusive,
			Contended: c.Contended,
			WaitMs:    float64(c.WaitNs) / 1e6,
			HoldMs:    float64(c.HoldNs) / 1e6,
			MaxWaitUs: float64(c.MaxWaitNs) / 1e3,
			MaxHoldUs: float64(c.MaxHoldNs) / 1e3,
		}
		if totalWait > 0 {
			out[i].WaitShare = float64(c.WaitNs) / float64(totalWait)
		}
	}
	return out
}
