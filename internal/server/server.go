// Package server implements procserved's TCP front-end: it multiplexes
// wire-protocol connections onto one shared quel database and onto
// engine-backed bench worlds.
//
// Concurrency model. Each connection is served by one goroutine, which
// handles a request on the goroutine that read it, on the connection's
// own quel session. A read (retrieve, execute, explain) runs at a
// snapshot of the newest commit and never waits for the gate, as an
// engine query takes no lock. The disk has one update epoch, so a gate
// channel of capacity 1 orders the writes (quel.Writes): a connection
// acquires it per write, except inside an explicit transaction, where
// Begin holds it until Commit/Rollback while other connections go on
// reading the last commit.
// A request parked on the gate — always a write — is the one thing a
// TCancel frame can abort (it then fails with CodeCancelled); a TCancel
// that arrives at any other time is counted and dropped
// (conn.awaitGate). Bench worlds bypass the gate entirely — each world
// owns an engine whose lock table isolates its sessions.
//
// Admission. Connections, prepared statements, cursors, transactions and
// worlds are all bounded (Options); admission is a single atomic
// increment-then-check, so an over-limit request is rejected with
// CodeLimit before it allocates anything.
//
// Drain. Shutdown stops the listener and wakes every idle connection
// out of its read; a connection with a request in flight finishes and
// answers it first. Stragglers are force-closed when the context
// expires.
package server

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dbproc/internal/metric"
	"dbproc/internal/obs"
	"dbproc/internal/quel"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
)

// Options bounds and configures a Server. Zero values take defaults.
type Options struct {
	// MaxConns bounds concurrently open connections (default 64).
	MaxConns int
	// MaxStmts bounds prepared statements per connection (default 256).
	MaxStmts int
	// MaxCursors bounds open cursors per connection (default 256).
	MaxCursors int
	// MaxWorlds bounds concurrently open bench worlds (default 8).
	MaxWorlds int
	// FetchBatch caps the rows of a cursored reply (a Stmt/StmtExec
	// result or a Fetch) whose request names no cap. Zero, the default,
	// means every row that fits in one frame, so a cursor opens only for
	// a result larger than one frame; tests set a few rows to force one.
	// No reply ever carries more rows than fit in one frame.
	FetchBatch int
	// PageSize and Width configure the shared quel database;
	// zero takes the paper defaults (4000-byte pages, 100-byte tuples),
	// matching a local procshell session.
	PageSize int
	Width    int
	// Costs prices every quel session's simulated work.
	Costs metric.Costs
	// Recorder, when non-nil, receives one flight event per request
	// (kind "server.request"), so a stalled served run can be diagnosed
	// from the same flight tail as an in-process one. It also arms the
	// served-path SLO detector at telemetry.DefaultThresholds: a request
	// type whose running p99 service time breaches ServedP99Ns records
	// an EvDetector flight event (once per run). Worlds' engines share it.
	Recorder *telemetry.Recorder
	// TraceSink, when non-nil, receives one server-side wire span per
	// sampled traced request (docs/TRACING.md). Nil keeps the served
	// path span-free.
	TraceSink *obs.WireSpanSink
}

func (o *Options) fill() {
	if o.MaxConns <= 0 {
		o.MaxConns = 64
	}
	if o.MaxStmts <= 0 {
		o.MaxStmts = 256
	}
	if o.MaxCursors <= 0 {
		o.MaxCursors = 256
	}
	if o.MaxWorlds <= 0 {
		o.MaxWorlds = 8
	}
	if o.Costs == (metric.Costs{}) {
		o.Costs = metric.DefaultCosts()
	}
}

// Server is one procserved instance.
type Server struct {
	opt Options

	db   *quel.DB
	gate chan struct{} // capacity 1: serializes quel writers

	ln      net.Listener
	mu      sync.Mutex
	conns   map[*conn]struct{}
	wg      sync.WaitGroup
	drained atomic.Bool

	// worlds maps a world handle (int) to its *world. Opened and closed
	// rarely, looked up by every world step.
	worlds    sync.Map
	nextWorld atomic.Int64

	// Gauges and counters (atomic; scraped by TelemetryMetrics).
	nConns      atomic.Int64
	nStmts      atomic.Int64
	nCursors    atomic.Int64
	nTx         atomic.Int64
	nWorlds     atomic.Int64
	accepted    atomic.Int64
	rejected    atomic.Int64
	requests    atomic.Int64
	errorsTotal atomic.Int64
	cancels     atomic.Int64
	nextConnID  atomic.Int64

	// Per-request-type service-time histograms (wall-clock ns), indexed by
	// frame type and always on: they feed the dbproc_server_request_seconds
	// quantile series and the served SLO detector.
	hists [wire.TWorldClose + 1]*obs.Histogram

	det *telemetry.Detectors
}

// New builds an unstarted server with one fresh quel database.
func New(opt Options) *Server {
	opt.fill()
	s := &Server{
		opt:   opt,
		db:    quel.Open(opt.PageSize, opt.Width, opt.Costs),
		gate:  make(chan struct{}, 1),
		conns: make(map[*conn]struct{}),
	}
	for typ := range s.hists {
		s.hists[typ] = obs.NewWallHistogram()
	}
	if opt.Recorder != nil {
		s.det = telemetry.NewDetectors(telemetry.DefaultThresholds(), opt.Recorder)
	}
	return s
}

// DB exposes the shared quel database. Its own session is not one a
// connection uses: tests load data through it before clients connect.
func (s *Server) DB() *quel.DB { return s.db }

// Serve accepts connections on ln until Shutdown closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.drained.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// ListenAndServe binds addr (use "127.0.0.1:0" in tests), serves in the
// background, and returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains the server: the listener closes, every connection
// finishes its in-flight request and is then closed. Connections still
// busy when ctx expires are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.drained.Swap(true) {
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// A past read deadline takes an idle connection out of its read; one
	// that is handling a request sees the flag when it has answered
	// (serveConn checks it before every read, after any deadline of its
	// own).
	for c := range s.conns {
		c.nc.SetReadDeadline(past)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool { return s.drained.Load() }

// admit is the bounded-handle idiom: increment, check, roll back on
// overflow. It keeps admission to one atomic op on the accept path.
func admit(n *atomic.Int64, max int) bool {
	if n.Add(1) > int64(max) {
		n.Add(-1)
		return false
	}
	return true
}

func (s *Server) releaseGate() { <-s.gate }

// Stats is a point-in-time snapshot of the server's handle tables; the
// conformance suite asserts these drain to zero after each scenario.
type Stats struct {
	Conns    int64
	Stmts    int64
	Cursors  int64
	Tx       int64
	Worlds   int64
	Accepted int64
	Rejected int64
	Requests int64
	Errors   int64
	Cancels  int64
}

// Stat snapshots the gauges.
func (s *Server) Stat() Stats {
	return Stats{
		Conns:    s.nConns.Load(),
		Stmts:    s.nStmts.Load(),
		Cursors:  s.nCursors.Load(),
		Tx:       s.nTx.Load(),
		Worlds:   s.nWorlds.Load(),
		Accepted: s.accepted.Load(),
		Rejected: s.rejected.Load(),
		Requests: s.requests.Load(),
		Errors:   s.errorsTotal.Load(),
		Cancels:  s.cancels.Load(),
	}
}

// TelemetryMetrics implements telemetry.Source: the server's own
// connection-pool and handle gauges, plus every open world's engine
// metrics labelled with the world id.
func (s *Server) TelemetryMetrics() []telemetry.Metric {
	st := s.Stat()
	ms := []telemetry.Metric{
		telemetry.Gauge("dbproc_server_connections", "Open client connections.", float64(st.Conns), nil),
		telemetry.Gauge("dbproc_server_stmts_open", "Open prepared statements.", float64(st.Stmts), nil),
		telemetry.Gauge("dbproc_server_cursors_open", "Open cursors.", float64(st.Cursors), nil),
		telemetry.Gauge("dbproc_server_tx_open", "Open transactions.", float64(st.Tx), nil),
		telemetry.Gauge("dbproc_server_worlds_open", "Open bench worlds.", float64(st.Worlds), nil),
		telemetry.Counter("dbproc_server_connections_accepted_total", "Connections admitted.", float64(st.Accepted), nil),
		telemetry.Counter("dbproc_server_connections_rejected_total", "Connections refused at admission.", float64(st.Rejected), nil),
		telemetry.Counter("dbproc_server_requests_total", "Request frames handled.", float64(st.Requests), nil),
		telemetry.Counter("dbproc_server_errors_total", "Requests answered with an error frame.", float64(st.Errors), nil),
		telemetry.Counter("dbproc_server_cancels_total", "TCancel frames received.", float64(st.Cancels), nil),
	}
	type named struct {
		name string
		h    *obs.Histogram
	}
	var observed []named
	for typ, h := range s.hists {
		if h.Count() > 0 {
			observed = append(observed, named{wire.Name(byte(typ)), h})
		}
	}
	sort.Slice(observed, func(i, j int) bool { return observed[i].name < observed[j].name })
	for _, o := range observed {
		name, h := o.name, o.h
		ms = append(ms, telemetry.Counter("dbproc_server_request_seconds_count",
			"Requests observed by the service-time histogram.", float64(h.Count()),
			map[string]string{"type": name}))
		for _, q := range obs.Quantiles {
			ms = append(ms, telemetry.Gauge("dbproc_server_request_seconds",
				"Per-type request service time (histogram bucket upper edge).", h.Quantile(q)/1e9,
				map[string]string{"type": name, "quantile": fmt.Sprintf("%g", q)}))
		}
	}
	s.worlds.Range(func(id, w any) bool {
		label := map[string]string{"world": strconv.Itoa(id.(int))}
		for _, m := range w.(*world).eng.TelemetryMetrics() {
			if len(m.Labels) > 0 {
				merged := make(map[string]string, len(m.Labels)+1)
				for k, v := range m.Labels {
					merged[k] = v
				}
				merged["world"] = label["world"]
				m.Labels = merged
			} else {
				m.Labels = label
			}
			ms = append(ms, m)
		}
		return true
	})
	return ms
}

// record emits one flight event for a handled request; a traced request
// stamps its trace id into the event detail so a flight tail can be
// joined against the wire-span JSONL. Nil-safe.
func (s *Server) record(connID int64, seq int64, name string, serviceNs int64, traceID string) {
	if rec := s.opt.Recorder; rec != nil {
		detail := ""
		if traceID != "" {
			detail = "trace=" + traceID
		}
		rec.Record(telemetry.Event{Kind: "server.request", Session: int(connID), Seq: int(seq),
			Name: name, HoldNs: serviceNs, Detail: detail})
	}
}

// recordCancel counts a TCancel frame and records it as a flight event
// carrying the cancelled request's trace id (or "untraced request" when
// the in-flight request carried no context). Cancels used to vanish
// silently; now a flight tail shows who pulled the plug.
func (s *Server) recordCancel(connID int64, traceID string) {
	s.cancels.Add(1)
	if rec := s.opt.Recorder; rec != nil {
		detail := "untraced request"
		if traceID != "" {
			detail = "trace=" + traceID
		}
		rec.Record(telemetry.Event{Kind: telemetry.EvCancel, Session: int(connID), Seq: -1,
			Name: "cancel", Detail: detail})
	}
}

// observe feeds one request's service time into its type's histogram
// and, every 16th observation, tests the running p99 against the served
// SLO. A frame type the protocol does not define has no histogram: it
// was answered with a protocol error and the connection is closing.
func (s *Server) observe(typ byte, name string, serviceNs int64) {
	if int(typ) >= len(s.hists) {
		return
	}
	h := s.hists[typ]
	h.Observe(float64(serviceNs))
	if s.det == nil {
		return
	}
	if n := h.Count(); n >= 16 && n%16 == 0 {
		s.det.CheckServedP99(name, h.Quantile(0.99))
	}
}
