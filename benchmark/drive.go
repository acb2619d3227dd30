package main

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"
	"time"

	"dbproc/benchmark/spec"
	"dbproc/client"
)

// opInfo is what one driver call reports back to the closed loop.
type opInfo struct {
	Update bool
	// CostMs is the op's simulated cost when the response carries it
	// (world steps do, database/sql rows do not).
	CostMs float64
	// Done marks a drained world session: nothing was executed.
	Done bool
}

// stepper issues one client's next op and waits for its reply.
type stepper func(ctx context.Context) (opInfo, error)

// target is a system set up and ready for its first op: the procserved
// child plus the workload's handles on it.
type target struct {
	wl   spec.Workload
	seed int64
	srv  *serverProc
	// ctl is the control connection: world open/stats/close, and for
	// quel-sql the population, the cost probe and the output check.
	ctl   *client.Conn
	world int
	conns []*client.Conn
	// dbs is the database/sql side of quel-sql: one pool of spec.Clients
	// connections, or under tracing one single-connection pool per
	// client so each client's wire spans can be told apart.
	dbs   []*sql.DB
	qdb   *spec.QuelDB
	steps []stepper
}

// setup starts a server and brings the workload to "first op ready".
// tracers, when non-nil, has one tracer per client; traceFile is then
// the server's span file.
func setup(ctx context.Context, bin string, wl spec.Workload, seed int64, tracers []*client.Tracer, traceFile string) (t *target, err error) {
	srv, err := startServer(bin, traceFile)
	if err != nil {
		return nil, err
	}
	t = &target{wl: wl, seed: seed, srv: srv}
	defer func() {
		if err != nil {
			t.closeClients()
			srv.kill()
			err = fmt.Errorf("%w\nprocserved stderr:\n%s", err, srv.stderr)
		}
	}()
	if t.ctl, err = client.Dial(srv.Addr); err != nil {
		return nil, fmt.Errorf("dial control: %w", err)
	}
	if wl.IsQuel() {
		err = t.setupQuel(ctx, tracers)
	} else {
		err = t.setupWorld(ctx, tracers)
	}
	return t, err
}

func (t *target) setupWorld(ctx context.Context, tracers []*client.Tracer) error {
	opened, err := t.ctl.WorldOpen(ctx, t.wl.Open(t.seed, spec.Clients, tracers != nil))
	if err != nil {
		return fmt.Errorf("open world: %w", err)
	}
	t.world = opened.World
	for i := 0; i < spec.Clients; i++ {
		var cn *client.Conn
		if tracers != nil {
			cn, err = client.DialTraced(t.srv.Addr, tracers[i])
		} else {
			cn, err = client.Dial(t.srv.Addr)
		}
		if err != nil {
			return fmt.Errorf("dial client %d: %w", i, err)
		}
		t.conns = append(t.conns, cn)
		t.steps = append(t.steps, worldStepper(cn, t.world, i))
	}
	return nil
}

func worldStepper(cn *client.Conn, world, session int) stepper {
	return func(ctx context.Context) (opInfo, error) {
		st, err := cn.WorldNext(ctx, world, session)
		if err != nil {
			return opInfo{}, err
		}
		return opInfo{Update: st.Update, CostMs: st.CostMs, Done: st.Done}, nil
	}
}

// setupQuel populates the seed's database over the wire — creates on the
// control connection, appends split across spec.Clients connections,
// defines last so every cache is filled from the loaded relations — and
// opens the database/sql pool with every connection dialled.
func (t *target) setupQuel(ctx context.Context, tracers []*client.Tracer) error {
	t.qdb = spec.BuildQuelDB(t.seed)
	for _, text := range t.qdb.Creates {
		if _, err := t.ctl.Exec(ctx, text); err != nil {
			return fmt.Errorf("%s: %w", text, err)
		}
	}
	appends := t.qdb.Appends
	errs := make([]error, spec.Clients)
	var wg sync.WaitGroup
	for i := 0; i < spec.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cn, err := client.Dial(t.srv.Addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer cn.Close()
			for j := i; j < len(appends); j += spec.Clients {
				if _, err := cn.Exec(ctx, appends[j]); err != nil {
					errs[i] = fmt.Errorf("%s: %w", appends[j], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	for _, text := range t.qdb.Defines {
		if _, err := t.ctl.Exec(ctx, text); err != nil {
			return fmt.Errorf("%s: %w", text, err)
		}
	}

	if tracers == nil {
		db, err := sql.Open("dbproc", t.srv.Addr)
		if err != nil {
			return err
		}
		db.SetMaxOpenConns(spec.Clients)
		db.SetMaxIdleConns(spec.Clients)
		t.dbs = []*sql.DB{db}
	} else {
		for i := 0; i < spec.Clients; i++ {
			db := sql.OpenDB(client.NewConnector(t.srv.Addr, tracers[i]))
			db.SetMaxOpenConns(1)
			t.dbs = append(t.dbs, db)
		}
	}
	// Dial every pool member now: holding the connections at once is
	// what makes the pool open all of them.
	var held []*sql.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < spec.Clients; i++ {
		c, err := t.dbs[i%len(t.dbs)].Conn(ctx)
		if err != nil {
			return fmt.Errorf("open pool connection: %w", err)
		}
		held = append(held, c)
		if err := c.PingContext(ctx); err != nil {
			return fmt.Errorf("ping pool connection: %w", err)
		}
	}
	for i := 0; i < spec.Clients; i++ {
		t.steps = append(t.steps, quelStepper(t.dbs[i%len(t.dbs)], spec.NewQuelStream(t.qdb, t.seed, i)))
	}
	return nil
}

// quelStepper runs the stream's next statement the way an application
// would: executes through QueryContext with every row scanned, replaces
// through ExecContext.
func quelStepper(db *sql.DB, stream *spec.QuelStream) stepper {
	return func(ctx context.Context) (opInfo, error) {
		st := stream.Next()
		if st.Update {
			_, err := db.ExecContext(ctx, st.Text)
			return opInfo{Update: true}, err
		}
		rows, err := db.QueryContext(ctx, st.Text)
		if err != nil {
			return opInfo{}, err
		}
		defer rows.Close()
		cols, err := rows.Columns()
		if err != nil {
			return opInfo{}, err
		}
		vals := make([]int64, len(cols))
		dest := make([]any, len(cols))
		for i := range vals {
			dest[i] = &vals[i]
		}
		for rows.Next() {
			if err := rows.Scan(dest...); err != nil {
				return opInfo{}, err
			}
		}
		return opInfo{}, rows.Err()
	}
}

func (t *target) closeClients() {
	for _, cn := range t.conns {
		cn.Close()
	}
	for _, db := range t.dbs {
		db.Close()
	}
	if t.ctl != nil {
		t.ctl.Close()
	}
}

// teardown closes every handle and drains the server: SIGINT, exit 0.
func (t *target) teardown(ctx context.Context) error {
	if !t.wl.IsQuel() {
		t.ctl.WorldClose(ctx, t.world) // the drain below is the check
	}
	t.closeClients()
	return t.srv.stop()
}

// probeResult is the QUEL cost probe's reading.
type probeResult struct {
	SimMsPerAccess float64
	HitRatio       float64
	Executes       int
}

// quelProbe runs the probe schedule on the control connection, where
// Result.CostMs and the "(from cache)" note are visible (database/sql
// hides both). One client and a fixed schedule, so for a seed the
// simulated cost repeats exactly. It doubles as the workload's warm-up.
func (t *target) quelProbe(ctx context.Context, rounds int) (probeResult, error) {
	var pr probeResult
	var costMs float64
	hits := 0
	for _, st := range t.qdb.ProbeStatements(t.seed, rounds) {
		res, err := t.ctl.Exec(ctx, st.Text)
		if err != nil {
			return pr, fmt.Errorf("probe %q: %w", st.Text, err)
		}
		costMs += res.CostMs
		if !st.Update {
			pr.Executes++
			if strings.Contains(res.Message, "(from cache)") {
				hits++
			}
		}
	}
	if pr.Executes > 0 {
		pr.SimMsPerAccess = costMs / float64(pr.Executes)
		pr.HitRatio = float64(hits) / float64(pr.Executes)
	}
	return pr, nil
}

// ---------------------------------------------------------------------------
// The closed loop

// opSpan is one driver call as the harness timed it (traced runs only).
type opSpan struct {
	Update     bool
	Start, End int64 // unix ns
}

// clientRun is what one closed-loop client measured.
type clientRun struct {
	// Access and Update hold the sampled latencies in microseconds.
	Access, Update []float64
	// Start and End bound the sampled window on this client.
	Start, End time.Time
	// Ops, Queries and Updates count everything executed, warm-up
	// included; SimMs sums their simulated cost.
	Ops, Queries, Updates int
	SimMs                 float64
	Failed                int
	Err                   error
	// The checkpoint reading: simulated cost and query count over the
	// client's first plan.Checkpoint ops, and the server's memory
	// high-water mark at that moment.
	CpSimMs   float64
	CpQueries int
	CpRSSMB   float64
	CpReached bool
	Spans     []opSpan
}

// loopPlan shapes one closed-loop run.
type loopPlan struct {
	// Warm is executed but not sampled; Measure is the sampled window.
	Warm, Measure time.Duration
	// Checkpoint is the per-client op count of the checkpoint reading;
	// RSS reads the server's memory there.
	Checkpoint int
	RSS        func() (float64, error)
	// Spans keeps one opSpan per op (traced runs).
	Spans bool
}

// runClients drives every stepper in its own goroutine with zero think
// time until the window closes or its stream drains, and returns when
// all have stopped. A failed op ends its client: the workloads are
// chosen so that none fails, and a broken connection would otherwise
// fail as fast as the loop can spin.
func runClients(ctx context.Context, steps []stepper, plan loopPlan) []clientRun {
	runs := make([]clientRun, len(steps))
	begin := time.Now()
	warmUntil := begin.Add(plan.Warm)
	deadline := warmUntil.Add(plan.Measure)
	var wg sync.WaitGroup
	for i, step := range steps {
		wg.Add(1)
		go func(r *clientRun, step stepper) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				info, err := step(ctx)
				t1 := time.Now()
				if err != nil {
					r.Failed++
					r.Err = err
					break
				}
				if info.Done {
					break
				}
				r.Ops++
				r.SimMs += info.CostMs
				if info.Update {
					r.Updates++
				} else {
					r.Queries++
				}
				if !t0.Before(warmUntil) {
					if r.Start.IsZero() {
						r.Start = t0
					}
					us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
					if info.Update {
						r.Update = append(r.Update, us)
					} else {
						r.Access = append(r.Access, us)
					}
				}
				if plan.Spans {
					r.Spans = append(r.Spans, opSpan{Update: info.Update, Start: t0.UnixNano(), End: t1.UnixNano()})
				}
				if r.Ops == plan.Checkpoint {
					r.CpSimMs, r.CpQueries, r.CpReached = r.SimMs, r.Queries, true
					if plan.RSS != nil {
						r.CpRSSMB, _ = plan.RSS() // 0 falls back to the end-of-run reading
					}
				}
			}
			r.End = time.Now()
			if r.Start.IsZero() {
				r.Start = r.End
			}
		}(&runs[i], step)
	}
	wg.Wait()
	return runs
}
