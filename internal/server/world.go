package server

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/engine"
	"dbproc/internal/sim"
	"dbproc/internal/wire"
	"dbproc/internal/workload"
)

// world is one served bench world: an engine with its sessions opened up
// front, each stepped through its dealt share of the workload by
// Session.Next, so a served run commits the same per-session operation
// streams as engine.Run with the same client count — and, with one
// session, the same byte stream as sim.Run. The world adds only what the
// server owns: one mutex per session and the WorldStats seal. Nothing it
// keeps grows with the steps it serves.
type world struct {
	id  int
	eng *engine.Engine

	sessions []*engine.Session
	// semu[i] serializes session i (a session is single-submitter by
	// contract, but wire clients may race — TryLock maps the race to
	// CodeBusy).
	semu []sync.Mutex

	started time.Time

	// statsOnce seals the world: the first WorldStats finishes the engine
	// and caches the result.
	statsOnce sync.Once
	stats     *wire.WorldStatsResult
	statsErr  *wire.Error
}

func (c *conn) handleWorldOpen(m *wire.WorldOpen) error {
	strat, ok := costmodel.ParseStrategy(m.Strategy)
	if !ok && !m.Adaptive {
		return c.writeError(wire.CodeParse, fmt.Sprintf("unknown strategy %q", m.Strategy))
	}
	model, ok := costmodel.ParseModel(m.Model)
	if !ok {
		return c.writeError(wire.CodeParse, fmt.Sprintf("unknown model %q", m.Model))
	}
	params := m.Params
	if params == (costmodel.Params{}) {
		params = costmodel.Default()
	}
	if err := params.Validate(); err != nil {
		return c.writeError(wire.CodeParse, err.Error())
	}
	if m.Scenario != "" {
		if _, ok := workload.ByName(m.Scenario); !ok {
			return c.writeError(wire.CodeParse, fmt.Sprintf("unknown scenario %q", m.Scenario))
		}
	}
	// Sessions are allocated up front: bound them like connections.
	clients := m.Clients
	if clients < 1 {
		clients = 1
	}
	if clients > c.srv.opt.MaxConns {
		return c.writeError(wire.CodeLimit, fmt.Sprintf("%d sessions exceed the %d-connection limit", clients, c.srv.opt.MaxConns))
	}
	cfg := sim.Config{
		Params:           params,
		Model:            model,
		Strategy:         strat,
		Seed:             m.Seed,
		Scenario:         m.Scenario,
		R2UpdateFraction: m.R2UpdateFraction,
		Adaptive:         m.Adaptive,
	}
	if m.Ledger {
		cfg.Ledger = cache.NewLedger()
	}
	if !admit(&c.srv.nWorlds, c.srv.opt.MaxWorlds) {
		return c.writeError(wire.CodeLimit, "too many open worlds")
	}

	eng := engine.New(cfg, engine.Options{
		Clients:  clients,
		CritPath: m.CritPath,
		Recorder: c.srv.opt.Recorder,
	})
	w := &world{
		eng:      eng,
		sessions: make([]*engine.Session, clients),
		semu:     make([]sync.Mutex, clients),
		started:  time.Now(),
	}
	for i := range w.sessions {
		w.sessions[i] = eng.OpenSession(i)
	}
	w.id = int(c.srv.nextWorld.Add(1))
	c.srv.worlds.Store(w.id, w)
	return c.write(wire.TWorldOpened, &wire.WorldOpened{World: w.id, Sessions: clients, Ops: eng.Deal()})
}

func (s *Server) lookupWorld(id int) *world {
	if w, ok := s.worlds.Load(id); ok {
		return w.(*world)
	}
	return nil
}

// worldNext executes session's next dealt operation in world id: the
// TWorldNext frame, the one way into a world's sessions.
func (s *Server) worldNext(id, session int) (*wire.WorldStep, *wire.Error) {
	w := s.lookupWorld(id)
	if w == nil {
		return nil, &wire.Error{Code: wire.CodeBadHandle, Msg: fmt.Sprintf("no world %d", id)}
	}
	if session < 0 || session >= len(w.sessions) {
		return nil, &wire.Error{Code: wire.CodeBadHandle, Msg: fmt.Sprintf("world %d has no session %d", id, session)}
	}
	if !w.semu[session].TryLock() {
		return nil, &wire.Error{Code: wire.CodeBusy, Msg: fmt.Sprintf("world %d session %d has a request in flight", id, session)}
	}
	defer w.semu[session].Unlock()
	if w.stats != nil {
		return nil, &wire.Error{Code: wire.CodeExec, Msg: fmt.Sprintf("world %d already finished", id)}
	}
	out, done := w.sessions[session].Next()
	if done {
		return &wire.WorldStep{Done: true}, nil
	}
	return &wire.WorldStep{
		Seq:         out.Seq,
		Update:      out.Kind == workload.Update,
		Tuples:      out.Tuples,
		CostMs:      out.CostMs,
		WallNs:      out.WallNs,
		WaitNs:      out.WaitNs,
		IONs:        out.IONs,
		RecomputeNs: out.RecomputeNs,
		ComputeNs:   out.ComputeNs,
		Phase:       out.Phase,
	}, nil
}

// handleWorldNext answers with the step. A traced step's service wall is
// partitioned: the engine already decomposed the execution (WallNs = lock
// wait + io + recompute + compute under the critical-path invariant; lock
// wait + compute otherwise), so the server's own overhead — dispatch
// and response build — lands in admission and the engine
// remainder in compute, keeping the segments an exact partition. The
// breakdown and scenario phase are stashed for the span export.
func (c *conn) handleWorldNext(m *wire.WorldNext) error {
	step, werr := c.srv.worldNext(m.World, m.Session)
	if werr != nil {
		return c.writeError(werr.Code, werr.Msg)
	}
	if c.trace != nil {
		c.phase = step.Phase
		wall := time.Since(c.reqStart).Nanoseconds()
		adm := max(wall-step.WallNs, 0)
		bd := &wire.ServerBreakdown{
			SpanID:      c.spanID,
			WallNs:      wall,
			AdmissionNs: adm,
			LockWaitNs:  step.WaitNs,
			IONs:        step.IONs,
			RecomputeNs: step.RecomputeNs,
		}
		bd.ComputeNs = wall - adm - bd.LockWaitNs - bd.IONs - bd.RecomputeNs
		step.Server, c.breakdown = bd, bd
	}
	return c.write(wire.TWorldStep, step)
}

func (c *conn) handleWorldStats(m *wire.WorldStats) error {
	w := c.srv.lookupWorld(m.World)
	if w == nil {
		return c.writeError(wire.CodeBadHandle, fmt.Sprintf("no world %d", m.World))
	}
	w.statsOnce.Do(func() {
		// Take every session mutex so a racing worldNext either commits
		// before the seal or observes the finished world.
		for i := range w.semu {
			w.semu[i].Lock()
		}
		defer func() {
			for i := range w.semu {
				w.semu[i].Unlock()
			}
		}()
		res := w.eng.Finish(time.Since(w.started).Seconds())
		stats := &wire.WorldStatsResult{
			Ops:           res.Ops,
			Queries:       res.Queries,
			Updates:       res.Updates,
			Tuples:        res.TuplesReturned,
			SimTotalMs:    res.SimTotalMs,
			Counters:      res.Counters,
			HistoryDigest: res.HistoryDigest,
		}
		if cfg := w.eng.World().Config(); cfg.Ledger != nil {
			var buf bytes.Buffer
			meta := cache.LedgerMeta{
				Strategy: cfg.Strategy.String(), Model: int(cfg.Model),
				Clients: len(w.sessions), Seed: cfg.Seed,
				Queries: res.Queries, Updates: res.Updates,
				TotalMs: res.SimTotalMs,
			}
			if err := cache.WriteLedger(&buf, meta, cfg.Ledger); err != nil {
				w.statsErr = &wire.Error{Code: wire.CodeExec, Msg: err.Error()}
				return
			}
			stats.Ledger = buf.Bytes()
		}
		w.stats = stats
	})
	if w.statsErr != nil {
		return c.writeError(w.statsErr.Code, w.statsErr.Msg)
	}
	return c.write(wire.TWorldStatsResult, w.stats)
}

func (c *conn) handleWorldClose(m *wire.WorldClose) error {
	if _, ok := c.srv.worlds.LoadAndDelete(m.World); ok {
		c.srv.nWorlds.Add(-1)
	}
	return c.write(wire.TOK, &wire.OK{})
}
