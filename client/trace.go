package client

import (
	"context"
	"database/sql/driver"
	"sync"
	"sync/atomic"
	"time"

	"dbproc/internal/obs"
	"dbproc/internal/wire"
)

// Tracer instruments a connection's requests end to end: every request
// that can carry a trace context gets a fresh one (the driver-side call
// is the root span, the server's span nests under it), the driver
// stamps its own wall clock around the round trip, and the server's
// reported breakdown splits that wall into network time (client wall
// minus server wall) and the server's exact segment partition.
//
// A Tracer aggregates Stats over all requests and per connection, and —
// when built with a sink — writes one client-side wire span per request
// as JSONL, which cmd/proctrace merges with the server's file into a
// single cross-process timeline.
//
// Attach a Tracer at dial time (DialTraced, or NewConnector +
// sql.OpenDB). Plain Dial / sql.Open stay untraced and put exactly the
// pre-tracing bytes on the wire.
type Tracer struct {
	sink     *obs.WireSpanSink
	nextConn atomic.Int64

	mu   sync.Mutex
	agg  Stats
	conn map[int64]*Stats
}

// Stats accumulates driver-side latency accounting. ServerWallNs and
// the segment sums only grow on responses that carried a breakdown
// (Result / WorldStep frames); NetworkNs is the paired remainder, so
// NetworkNs + ServerWallNs partitions the breakdown-bearing share of
// ClientWallNs.
type Stats struct {
	// Requests counts traced round trips; WithServer the subset whose
	// response carried a server breakdown.
	Requests   int64
	WithServer int64
	// Errors counts requests the server answered with an error frame;
	// Cancelled those the caller's context killed.
	Errors    int64
	Cancelled int64
	// ClientWallNs is driver-stamped wall time across all traced
	// requests; ServerWallNs the server-reported service wall;
	// NetworkNs the derived wire time (clamped at zero: the two sides
	// read different clocks only through their own durations, so no
	// skew enters, but coarse timers can tie).
	ClientWallNs int64
	ServerWallNs int64
	NetworkNs    int64
	// Server segment sums, straight from the breakdowns.
	AdmissionNs int64
	GateNs      int64
	LockWaitNs  int64
	IONs        int64
	RecomputeNs int64
	ComputeNs   int64
}

func (s *Stats) add(o Stats) {
	s.Requests += o.Requests
	s.WithServer += o.WithServer
	s.Errors += o.Errors
	s.Cancelled += o.Cancelled
	s.ClientWallNs += o.ClientWallNs
	s.ServerWallNs += o.ServerWallNs
	s.NetworkNs += o.NetworkNs
	s.AdmissionNs += o.AdmissionNs
	s.GateNs += o.GateNs
	s.LockWaitNs += o.LockWaitNs
	s.IONs += o.IONs
	s.RecomputeNs += o.RecomputeNs
	s.ComputeNs += o.ComputeNs
}

// NewTracer builds a tracer. sink may be nil: stats still accumulate,
// no JSONL is written.
func NewTracer(sink *obs.WireSpanSink) *Tracer {
	return &Tracer{sink: sink, conn: make(map[int64]*Stats)}
}

// Stats returns the aggregate over every traced request so far.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agg
}

// ConnStats returns a copy of the per-connection accounting, keyed by
// the tracer-assigned connection id (one per dialed Conn, so a pooled
// connection keeps one row across reuse).
func (t *Tracer) ConnStats() map[int64]Stats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]Stats, len(t.conn))
	for id, s := range t.conn {
		out[id] = *s
	}
	return out
}

// register assigns the next connection id.
func (t *Tracer) register() int64 { return t.nextConn.Add(1) }

// breakdownOf pulls the server breakdown off the response frames that
// carry one.
func breakdownOf(resp any) *wire.ServerBreakdown {
	switch r := resp.(type) {
	case *wire.Result:
		return r.Server
	case *wire.WorldStep:
		return r.Server
	}
	return nil
}

// finish records one traced round trip: stats always, a client wire
// span when the tracer has a sink.
func (t *Tracer) finish(connID int64, tc *wire.TraceContext, name string, start time.Time, wallNs int64, resp any, err error, ctx context.Context) {
	var d Stats
	d.Requests = 1
	d.ClientWallNs = wallNs
	errCode := ""
	if err != nil {
		if ctx.Err() != nil {
			d.Cancelled = 1
			errCode = wire.CodeCancelled
		} else if werr, ok := err.(*wire.Error); ok {
			d.Errors = 1
			errCode = werr.Code
		}
	}
	phase := ""
	bd := breakdownOf(resp)
	if step, ok := resp.(*wire.WorldStep); ok {
		phase = step.Phase
	}
	if bd != nil {
		d.WithServer = 1
		d.ServerWallNs = bd.WallNs
		if net := wallNs - bd.WallNs; net > 0 {
			d.NetworkNs = net
		}
		d.AdmissionNs = bd.AdmissionNs
		d.GateNs = bd.GateNs
		d.LockWaitNs = bd.LockWaitNs
		d.IONs = bd.IONs
		d.RecomputeNs = bd.RecomputeNs
		d.ComputeNs = bd.ComputeNs
	}
	t.mu.Lock()
	t.agg.add(d)
	cs := t.conn[connID]
	if cs == nil {
		cs = &Stats{}
		t.conn[connID] = cs
	}
	cs.add(d)
	t.mu.Unlock()
	if t.sink == nil {
		return
	}
	rec := obs.WireSpanRecord{
		Side: obs.SideClient, TraceID: tc.TraceID, SpanID: tc.SpanID,
		Name: name, Conn: connID, Phase: phase,
		StartUnixNs: start.UnixNano(), DurNs: wallNs,
		NetworkNs: d.NetworkNs, Err: errCode,
	}
	t.sink.Write(rec)
}

// DialTraced is Dial with every request traced through t; a nil t
// dials untraced, as Dial does.
func DialTraced(addr string, t *Tracer) (*Conn, error) {
	c, err := Dial(addr)
	if err != nil || t == nil {
		return c, err
	}
	c.tracer = t
	c.connID = t.register()
	return c, nil
}

// NewConnector returns a database/sql connector whose pooled
// connections are traced through t (pass it to sql.OpenDB). A nil
// tracer yields the same untraced pool as sql.Open("dbproc", addr).
func NewConnector(addr string, t *Tracer) driver.Connector {
	return connector{addr: addr, d: &Driver{}, tracer: t}
}
