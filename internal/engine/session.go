package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dbproc/internal/obs"
	"dbproc/internal/storage"
	"dbproc/internal/telemetry"
	"dbproc/internal/workload"
)

// Session is one open client session of a live engine: a private pager
// and meter over the shared disk, the session's running statistics, and
// its latency histograms. Run opens one per configured client; a server
// front-end (cmd/procserved) instead opens sessions up front and drives
// each with Exec as operations arrive off the wire. A Session is not
// safe for concurrent use — the engine's lock table isolates sessions
// from each other, but each session must submit one operation at a time.
type Session struct {
	e  *Engine
	id int
	pg *storage.Pager
	st SessionStats
	// ws is the pager's wall-clock segment accumulator; nil unless
	// Options.CritPath.
	ws *storage.WallStats
	// wall and sim are the session's per-op latency histograms: wall-clock
	// nanoseconds and simulated milliseconds. Readers merge them across
	// sessions (Engine.latency).
	wall, sim *obs.Histogram
}

// OpOutcome reports one committed operation back to the submitter — the
// per-op attributes a served client sees (docs/SERVING.md): the commit
// sequence, the simulated cost, and the wall-clock decomposition. WallNs
// and WaitNs (the sum of the op's measured lock waits) are always set;
// the other critical-path segments (IONs/RecomputeNs/ComputeNs) are
// populated only under Options.CritPath.
type OpOutcome struct {
	Seq    int
	Tuples int
	// Digest is the canonical query-result digest: always set for
	// queries, nil for updates.
	Digest []byte
	// CostMs is the op's simulated cost (the session meter's delta priced
	// at the run's cost constants).
	CostMs      float64
	WallNs      int64
	WaitNs      int64
	IONs        int64
	RecomputeNs int64
	ComputeNs   int64
}

// OpenSession opens session id (0 <= id < Options.Clients); each id may
// be opened once per engine. The session's private pager and meter share
// the world's disk but carry their own operation scope and cost
// attribution. A fresh session pager is in exactly the state Build
// leaves the world's pager, so one session executing the sequential
// stream reproduces sim.Run byte for byte.
func (e *Engine) OpenSession(id int) *Session {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if id < 0 || id >= len(e.sessions) {
		panic(fmt.Sprintf("engine: session %d out of range (%d clients)", id, len(e.sessions)))
	}
	if e.sessions[id] != nil {
		panic(fmt.Sprintf("engine: session %d already open", id))
	}
	s := &Session{e: e, id: id, pg: e.w.SessionPager(id), wall: obs.NewWallHistogram(), sim: obs.NewHistogram(nil)}
	s.st.Session = id
	if e.opt.CritPath {
		s.ws = s.pg.EnableWallStats()
	}
	e.sessions[id] = s
	return s
}

// ID returns the session's id.
func (s *Session) ID() int { return s.id }

// Stats snapshots the session's statistics so far.
func (s *Session) Stats() SessionStats { return s.st }

// Think records d of think time against the session's wall-clock
// decomposition (the closed-loop pause between operations).
func (s *Session) Think(d time.Duration) { s.st.ThinkNs += int64(d) }

// Exec executes one workload operation for this session: acquire the
// op's 2PL footprint (none for a query), open the op's scope on the
// session's private pager — a snapshot read, or the update epoch — run
// the operation body in it, and commit — sequence draw, epoch publish,
// span adoption, aggregate merge and history fold form one atomic step,
// taken while the footprint is still held. This is the loop body
// of Run, exported so a wire front-end can submit a session's operations
// one at a time.
func (s *Session) Exec(op workload.Op) OpOutcome {
	e := s.e
	rec := e.opt.Recorder
	critOn := e.opt.CritPath
	meter := s.pg.Meter()
	update := op.Kind == workload.Update

	// An update's name is also the blame tag its locks carry.
	opName := "update"
	if !update && (rec != nil || critOn) {
		opName = fmt.Sprintf("query proc:%d", op.ProcID)
	}
	if rec != nil {
		rec.Op(telemetry.EvOpBegin, s.id, -1, opName, 0, 0)
	}
	e.inflight.Add(1)
	opStart := time.Now()
	// A query takes no lock. An update takes the one update footprint; its
	// wait is the sum of the measured blocking times, so the blame edges
	// partition it exactly.
	var held *Held
	var waits []LockWait
	var waitNs int64
	if update {
		held = e.locks.AcquireAs(e.updateFP, s.id, opName)
		waits = held.Waits()
		for _, lw := range waits {
			waitNs += lw.WaitNs
		}
	}
	// The op's scope (docs/MVCC.md): a query reads at a snapshot — version
	// chains and published directory copies resolve at that stamp,
	// lock-free. An update opens the write epoch (its exclusive r1/r2
	// locks guarantee it is the only one): its writes stage privately and
	// publish atomically at commit under the commit mutex.
	snap := s.pg.OpenScope(update)
	if rec != nil {
		for _, lw := range waits {
			rec.Record(telemetry.Event{
				Kind: telemetry.EvLockAcquire, Session: s.id, Seq: -1,
				Name: lw.Lock, WaitNs: lw.WaitNs,
				Detail: fmt.Sprintf("held by session %d (%s)", lw.HolderSession, lw.HolderOp),
			})
		}
	}

	if critOn {
		s.ws.Reset()
	}
	before := meter.Breakdown()
	r := e.w.ExecOpOn(s.pg, op)
	deltaBd := meter.Breakdown().Sub(before)
	delta := deltaBd.Total()
	var ioNs, recomputeNs int64
	if critOn {
		ioNs, recomputeNs = s.ws.IONs, s.ws.RecomputeNs
	}

	out := OpOutcome{
		CostMs:      delta.Milliseconds(e.costs),
		WaitNs:      waitNs,
		IONs:        ioNs,
		RecomputeNs: recomputeNs,
	}

	// The result digest reads the whole result — here, while the
	// borrowed tuples are valid: before the scope closes below, after which
	// version GC may hand the images they point into to an update. It is
	// a pure function of it, so it is computed here and only folded under
	// the commit mutex: a large result must not extend every other
	// session's commit.
	if op.Kind == workload.Query {
		out.Digest = e.digest(r.Tuples)
	}

	// Commit: draw the sequence, adopt the operation's span, merge the
	// session's cost delta into the run aggregate and fold the history
	// entry into the running digest (keeping it under RecordHistory) — one
	// atomic step, taken while the 2PL footprint is still held so commit
	// order serializes conflicting operations.
	e.commitMu.Lock()
	seq := e.seq
	e.seq++
	if update {
		// The commit stamp is drawn from the same counter as the commit
		// sequence (stamp 0 is the pre-run state), so version visibility
		// and commit order can never disagree. Publishing under commitMu
		// makes the version-chain links and the stamp advance one atomic
		// step from any snapshot acquirer's point of view.
		snap = uint64(seq) + 1
		s.pg.CloseScope(snap)
	}
	if t := e.opt.Tracer; t != nil {
		name := "session.update"
		if op.Kind == workload.Query {
			name = "session.query"
		}
		sp := t.Adopt(name, e.agg.Total().Milliseconds(e.costs), delta, e.costs)
		if op.Kind == workload.Query {
			sp.Set("proc", op.ProcID)
		}
		sp.Set("session", s.id)
		sp.Set("seq", seq)
		if ph := e.phaseName(op.Phase); ph != "" {
			sp.Set("phase", ph)
		}
		if update {
			sp.Set("wall_wait_ns", waitNs)
		}
		if len(waits) > 0 {
			// Blame attributes feed the Chrome-trace flow events
			// (obs.WriteChromeTrace draws an arrow from the blamed
			// session's latest span to this one).
			var bss, bls strings.Builder
			for i, lw := range waits {
				if i > 0 {
					bss.WriteByte(',')
					bls.WriteByte(',')
				}
				bss.WriteString(strconv.Itoa(lw.HolderSession))
				bls.WriteString(lw.Lock)
			}
			sp.Set("blame_sessions", bss.String())
			sp.Set("blame_locks", bls.String())
		}
	}
	e.agg.AddBreakdown(deltaBd)
	he := HistoryEntry{Session: s.id, Seq: seq, Op: op, CostMs: out.CostMs, Snap: snap}
	if update {
		he.Update = r.Update
	} else {
		he.Result = out.Digest
		he.Tuples = len(r.Tuples)
	}
	e.histDig.add(&he)
	if e.opt.RecordHistory {
		e.hist = append(e.hist, he)
	}
	e.commitMu.Unlock()
	if update {
		held.Release()
		// Version-chain GC runs outside the update's footprint under its
		// own lock: waits here are MVCC bookkeeping, never update-footprint
		// contention, and procstat classifies them by the mvcc: name.
		gcHeld := e.locks.AcquireAs(e.gcFP, s.id, "gc")
		e.w.Disk().GCVersions()
		gcHeld.Release()
		e.blame(waits)
		e.blame(gcHeld.Waits())
	} else {
		s.pg.CloseScope(0)
	}
	wallNs := time.Since(opStart).Nanoseconds()
	service := wallNs - waitNs
	e.inflight.Add(-1)
	e.committed.Add(1)
	e.countPhase(op.Phase)
	e.waitNsTot.Add(waitNs)
	e.wallNsTot.Add(wallNs)
	out.Seq = seq
	out.Tuples = len(r.Tuples)
	out.WallNs = wallNs
	if rec != nil {
		rec.Op(telemetry.EvOpCommit, s.id, seq, opName, waitNs, service)
		rec.Op(telemetry.EvLockRelease, s.id, seq, opName, 0, wallNs)
	}
	if critOn {
		// The measured segments are durations of disjoint sub-intervals of
		// the op's wall interval; compute is the remainder, so the four sum
		// to the wall time exactly.
		cp := OpCritPath{
			Session: s.id, Seq: seq, Op: opName,
			WallNs: wallNs, WaitNs: waitNs,
			IONs: ioNs, RecomputeNs: recomputeNs,
			Blame: waits,
		}
		cp.ComputeNs = cp.WallNs - cp.WaitNs - cp.IONs - cp.RecomputeNs
		out.ComputeNs = cp.ComputeNs
		e.segWait.Add(cp.WaitNs)
		e.segIO.Add(cp.IONs)
		e.segRecompute.Add(cp.RecomputeNs)
		e.segCompute.Add(cp.ComputeNs)
		if e.opt.RecordHistory {
			e.critMu.Lock()
			e.crits = append(e.crits, cp)
			e.critMu.Unlock()
		}
	}
	s.wall.Observe(float64(wallNs))
	s.sim.Observe(out.CostMs)
	if e.det != nil && e.committed.Load()%16 == 0 {
		wall, _ := e.latency()
		e.det.CheckLatency(wall.Quantile(0.99))
		e.det.CheckContention(e.waitNsTot.Load(), e.wallNsTot.Load())
	}

	s.st.Ops++
	if op.Kind == workload.Query {
		s.st.Queries++
		s.st.Tuples += len(r.Tuples)
	} else {
		s.st.Updates++
	}
	s.st.Counters = s.st.Counters.Add(delta)
	s.st.WaitNs += waitNs
	s.st.ServiceNs += service
	return out
}

// blame folds lock waits into the blocker aggregation behind
// TopBlockers, one blame edge per wait.
func (e *Engine) blame(waits []LockWait) {
	if len(waits) == 0 {
		return
	}
	e.critMu.Lock()
	for _, lw := range waits {
		k := blockerKey{lw.Lock, lw.HolderSession, lw.HolderOp}
		bs := e.blockers[k]
		if bs == nil {
			bs = &BlockerStat{Lock: lw.Lock, HolderSession: lw.HolderSession, HolderOp: lw.HolderOp}
			e.blockers[k] = bs
		}
		bs.Waits++
		bs.WaitNs += lw.WaitNs
	}
	e.critMu.Unlock()
}

// latency merges every opened session's wall and sim histograms. Safe to
// call while sessions execute.
func (e *Engine) latency() (wall, sim *obs.Histogram) {
	wall, sim = obs.NewWallHistogram(), obs.NewHistogram(nil)
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	for _, s := range e.sessions {
		if s != nil {
			wall.Merge(s.wall)
			sim.Merge(s.sim)
		}
	}
	return wall, sim
}

// Finish assembles the run's Result from the opened sessions, in
// session-id order. wall is the run's elapsed wall-clock in seconds,
// measured by whoever drove the sessions.
func (e *Engine) Finish(wall float64) Result {
	e.sessMu.Lock()
	sessions := append([]*Session(nil), e.sessions...)
	e.sessMu.Unlock()

	res := Result{Clients: len(sessions), Sessions: make([]SessionStats, len(sessions)), WallSec: wall}
	for i, sess := range sessions {
		if sess == nil {
			res.Sessions[i] = SessionStats{Session: i}
			continue
		}
		res.Sessions[i] = sess.st
		st := &res.Sessions[i]
		res.Ops += st.Ops
		res.Queries += st.Queries
		res.Updates += st.Updates
		res.TuplesReturned += st.Tuples
		res.Counters = res.Counters.Add(st.Counters)
	}
	if res.WallSec > 0 {
		res.Throughput = float64(res.Ops) / res.WallSec
	}
	res.SimTotalMs = res.Counters.Milliseconds(e.costs)
	e.commitMu.Lock()
	res.History = e.hist
	res.HistoryDigest = e.histDig.String()
	e.commitMu.Unlock()
	res.Contention = e.locks.Contention()
	res.TopBlockers = e.TopBlockers(0)
	wallH, simH := e.latency()
	res.WallLatency, res.SimLatency = wallH.Summary(), simH.Summary()
	if e.opt.CritPath {
		e.critMu.Lock()
		res.CritPaths = append([]OpCritPath(nil), e.crits...)
		e.critMu.Unlock()
		sort.Slice(res.CritPaths, func(i, j int) bool { return res.CritPaths[i].Seq < res.CritPaths[j].Seq })
		res.SegWaitNs, res.SegIONs = e.segWait.Load(), e.segIO.Load()
		res.SegRecomputeNs, res.SegComputeNs = e.segRecompute.Load(), e.segCompute.Load()
	}
	if e.det != nil {
		if l := e.w.Config().Ledger; l != nil {
			st := l.Stats()
			e.det.CheckWastedWork(st.WastedMs, st.ComputeMs)
		}
	}
	return res
}
