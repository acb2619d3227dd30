package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"dbproc/internal/obs"
	"dbproc/internal/quel"
	"dbproc/internal/wire"
)

// conn is one client connection. One goroutine owns it: it reads a
// frame, decodes it, handles it and writes the response, then reads the
// next. The only other goroutine a connection ever has is the cancel
// watcher, which exists while (and only while) a request is parked on
// the statement gate (awaitGate).
type conn struct {
	srv  *Server
	id   int64
	nc   net.Conn
	fr   *wire.Reader
	fw   *wire.Writer
	sess *quel.Session // the connection's quel session

	// Handle tables.
	stmts      map[int]quel.Statement
	cursors    map[int]*cursor
	tx         *quel.Tx
	txHandle   int
	nextHandle int

	// Per-request tracing state: the propagated context (nil when the
	// client sent none), the server span id minted for it, when dispatch
	// started, and what the response handler stashed for the span export
	// — the breakdown that went out on the wire, the scenario phase, and
	// the error code. trace outlives the response: a TCancel that arrives
	// late names the request it was aimed at.
	trace     *wire.TraceContext
	spanID    string
	reqStart  time.Time
	breakdown *wire.ServerBreakdown
	phase     string
	lastErr   string
}

// cursor is the server-side remainder of a cursored statement: the rows
// not yet fetched.
type cursor struct {
	rows [][]int64
}

// handshakeTimeout bounds the wait for a new connection's Hello.
const handshakeTimeout = 10 * time.Second

func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	if s.draining() || !admit(&s.nConns, s.opt.MaxConns) {
		s.rejected.Add(1)
		code := wire.CodeLimit
		if s.draining() {
			code = wire.CodeDraining
		}
		// Best effort: the connection is refused either way.
		_ = wire.WriteFrame(nc, wire.TError, &wire.Error{Code: code, Msg: "connection refused"})
		return
	}
	defer s.nConns.Add(-1)
	s.accepted.Add(1)

	c := &conn{
		srv:     s,
		id:      s.nextConnID.Add(1),
		nc:      nc,
		fr:      wire.NewReader(nc),
		fw:      wire.NewWriter(nc),
		sess:    s.db.NewSession(),
		stmts:   make(map[int]quel.Statement),
		cursors: make(map[int]*cursor),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.teardown()
	}()

	// Handshake: the first frame must be THello with a matching version.
	// Draining is checked after every deadline this goroutine sets and
	// before every read, so that the past read deadline Shutdown sets on
	// a registered connection is never lost to one of ours.
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if s.draining() {
		return
	}
	typ, payload, err := c.fr.ReadFrame()
	if err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})
	if typ != wire.THello {
		c.writeError(wire.CodeProtocol, "expected hello")
		return
	}
	msg, err := wire.Decode(typ, payload)
	if err != nil {
		c.writeError(wire.CodeProtocol, err.Error())
		return
	}
	hello := msg.(*wire.Hello)
	if hello.Version != wire.Version {
		c.writeError(wire.CodeProtocol, fmt.Sprintf("protocol version %d, server speaks %d", hello.Version, wire.Version))
		return
	}
	if err := c.write(wire.THelloOK, &wire.HelloOK{Version: wire.Version, Server: "procserved"}); err != nil {
		return
	}

	for !s.draining() {
		typ, payload, err := c.fr.ReadFrame()
		if err != nil {
			return // the client left, or Shutdown woke an idle connection
		}
		if typ == wire.TCancel {
			// Its request was answered before it arrived. Frames are
			// ordered, so it is consumed here, before the next request
			// starts, and can never cancel the wrong one.
			c.recordCancel()
			continue
		}
		if !c.handle(typ, payload) {
			return
		}
		// Yield between requests. Whatever this request made runnable — a
		// session that waited on a lock it held, a statement parked on the
		// gate — was queued on this P behind this goroutine, and under
		// load the connection's next request is often in the socket
		// already, so this goroutine would not block for a long time.
		// Another P takes the waiter over only when it runs out of work
		// of its own, which the runtime's background sweeper can keep it
		// from for milliseconds (update-heavy: update p99 2.5 ms without
		// the yield, 1.8 ms with it). With nothing else runnable the
		// yield costs a pass through the scheduler.
		runtime.Gosched()
	}
}

// teardown releases everything the connection holds: an open
// transaction rolls back (and frees the gate), cursors and prepared
// statements drop their admission slots.
func (c *conn) teardown() {
	if c.tx != nil {
		c.tx.Rollback()
		c.tx = nil
		c.srv.nTx.Add(-1)
		c.srv.releaseGate()
	}
	c.srv.nStmts.Add(-int64(len(c.stmts)))
	c.stmts = nil
	c.srv.nCursors.Add(-int64(len(c.cursors)))
	c.cursors = nil
}

// recordCancel counts a TCancel and records it against the trace of the
// request it was aimed at: the one parked, or the last one answered.
func (c *conn) recordCancel() {
	traceID := ""
	if c.trace != nil {
		traceID = c.trace.TraceID
	}
	c.srv.recordCancel(c.id, traceID)
}

// write sends one response. A response longer than one frame is not
// sent — nothing of it reaches the socket — and the request is answered
// with a CodeLimit error in its place, so the connection stays usable.
func (c *conn) write(typ byte, msg any) error {
	err := c.fw.WriteFrame(typ, msg)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return c.writeError(wire.CodeLimit, "the response does not fit in one frame: "+err.Error())
	}
	return err
}

func (c *conn) writeError(code, msg string) error {
	c.srv.errorsTotal.Add(1)
	c.lastErr = code
	return c.fw.WriteFrame(wire.TError, &wire.Error{Code: code, Msg: msg})
}

// finishRequest closes out one handled request: the service time feeds
// the per-type histogram and the flight recorder, and a sampled traced
// request exports its server span. When the response carried a
// breakdown the span's duration is the breakdown's WallNs — the wall
// the segments partition exactly — rather than the slightly larger
// dispatch-to-here time, so the sum-to-total invariant survives into
// the JSONL.
func (c *conn) finishRequest(typ byte, start time.Time) {
	service := time.Since(start).Nanoseconds()
	name := wire.Name(typ)
	c.srv.observe(typ, name, service)
	traceID := ""
	if c.trace != nil {
		traceID = c.trace.TraceID
	}
	c.srv.record(c.id, c.srv.requests.Load(), name, service, traceID)
	if c.trace == nil || !c.trace.Sampled {
		return
	}
	rec := obs.WireSpanRecord{
		Side: obs.SideServer, TraceID: c.trace.TraceID, SpanID: c.spanID,
		ParentSpanID: c.trace.SpanID, Name: name, Conn: c.id, Phase: c.phase,
		StartUnixNs: start.UnixNano(), DurNs: service, Err: c.lastErr,
	}
	if bd := c.breakdown; bd != nil {
		rec.DurNs = bd.WallNs
		rec.Segments = segmentsOf(bd)
	}
	c.srv.opt.TraceSink.Write(rec)
}

// segmentsOf maps a wire breakdown onto the JSONL segment keys
// (obs.SegmentOrder). Compute is always present so the partition stays
// checkable even when it is the only segment.
func segmentsOf(b *wire.ServerBreakdown) map[string]int64 {
	m := map[string]int64{"compute": b.ComputeNs}
	if b.AdmissionNs != 0 {
		m["admission"] = b.AdmissionNs
	}
	if b.GateNs != 0 {
		m["gate"] = b.GateNs
	}
	if b.LockWaitNs != 0 {
		m["lock_wait"] = b.LockWaitNs
	}
	if b.IONs != 0 {
		m["io"] = b.IONs
	}
	if b.RecomputeNs != 0 {
		m["recompute"] = b.RecomputeNs
	}
	return m
}

// handle services one request frame and writes exactly one response.
// It returns false when the connection should close (write failure or
// protocol violation).
func (c *conn) handle(typ byte, payload []byte) bool {
	c.srv.requests.Add(1)
	start := time.Now()
	c.reqStart = start
	c.trace, c.spanID, c.breakdown, c.phase, c.lastErr = nil, "", nil, "", ""
	defer c.finishRequest(typ, start)

	msg, err := wire.Decode(typ, payload)
	if err != nil {
		c.writeError(wire.CodeProtocol, err.Error())
		return false
	}
	// Adopt the client's propagated trace context: this request becomes
	// a child span of the driver-side call.
	if tc := wire.TraceOf(msg); tc != nil {
		c.trace = tc
		c.spanID = obs.NewSpanID()
	}
	switch m := msg.(type) {
	case *wire.Ping:
		return c.write(wire.TPong, &wire.Pong{}) == nil
	case *wire.Stmt:
		return c.handleStmt(m) == nil
	case *wire.Prepare:
		return c.handlePrepare(m) == nil
	case *wire.StmtExec:
		return c.handleStmtExec(m) == nil
	case *wire.StmtClose:
		if _, ok := c.stmts[m.Stmt]; ok {
			delete(c.stmts, m.Stmt)
			c.srv.nStmts.Add(-1)
		}
		return c.write(wire.TOK, &wire.OK{}) == nil
	case *wire.Begin:
		return c.handleBegin() == nil
	case *wire.Commit:
		return c.handleTxEnd(m.Tx, true) == nil
	case *wire.Rollback:
		return c.handleTxEnd(m.Tx, false) == nil
	case *wire.Fetch:
		return c.handleFetch(m) == nil
	case *wire.CursorClose:
		if _, ok := c.cursors[m.Cursor]; ok {
			delete(c.cursors, m.Cursor)
			c.srv.nCursors.Add(-1)
		}
		return c.write(wire.TOK, &wire.OK{}) == nil
	case *wire.WorldOpen:
		return c.handleWorldOpen(m) == nil
	case *wire.WorldNext:
		return c.handleWorldNext(m) == nil
	case *wire.WorldStats:
		return c.handleWorldStats(m) == nil
	case *wire.WorldClose:
		return c.handleWorldClose(m) == nil
	default:
		c.writeError(wire.CodeProtocol, fmt.Sprintf("unexpected frame type %d", typ))
		return false
	}
}

// enterGate acquires the statement gate for a write unless this
// connection already holds it through an open transaction; the returned
// release is a no-op for a read and inside a transaction, which keeps the
// gate until Commit/Rollback. A nil release means the gate was not had
// and the request is over: err is what the handler returns, nil when the
// client was answered with CodeCancelled and the connection lives on.
func (c *conn) enterGate(write bool) (release func(), err error) {
	if !write || c.tx != nil {
		return func() {}, nil
	}
	select {
	case c.srv.gate <- struct{}{}:
		return c.srv.releaseGate, nil
	default:
	}
	switch c.awaitGate() {
	case gateWon:
		return c.srv.releaseGate, nil
	case gateCancelled:
		return nil, c.writeError(wire.CodeCancelled, "cancelled waiting for the statement gate")
	case gateProtocol:
		c.writeError(wire.CodeProtocol, "request frame while another request is in flight")
	}
	return nil, errConnLost
}

// errConnLost ends a request that was parked on the gate when its
// connection became unusable: the client vanished, or broke the
// one-request-at-a-time rule. The connection closes.
var errConnLost = errors.New("server: connection lost while parked on the statement gate")

// gateVerdict is how a parked request's wait for the gate ended, or, from
// the watcher, what the connection's next frame turned out to be.
type gateVerdict int

const (
	gateWon       gateVerdict = iota
	gateCancelled             // a TCancel arrived and was consumed
	gateProtocol              // some other frame arrived: one request at a time
	gateLost                  // EOF or a read error: the client vanished
	gateUnwatched             // the watcher's read was aborted by a deadline
)

// past is a read deadline that has already expired.
var past = time.Unix(1, 0)

// awaitGate parks the request on the statement gate — the one place a
// TCancel can take effect: statement execution and world steps do not
// observe cancellation. While it is parked a watcher waits for the
// connection's next frame without consuming a partial one: a TCancel is
// consumed and ends the wait, EOF or a read error means the client
// vanished, any other frame is a protocol violation and is left unread.
// Once the gate is won the watcher's read is aborted with a past
// deadline, the watcher is joined, and the deadline is cleared. If the
// wait ended any other way the gate slot is not kept.
func (c *conn) awaitGate() gateVerdict {
	seen := make(chan gateVerdict, 1) // the watcher's one send never blocks
	go func() {
		typ, n, err := c.fr.Peek()
		switch {
		case err == nil && typ == wire.TCancel && n == 1:
			c.fr.ReadFrame() // whole and buffered: cannot block or fail
			seen <- gateCancelled
		case err == nil:
			seen <- gateProtocol
		case errors.Is(err, os.ErrDeadlineExceeded):
			seen <- gateUnwatched
		default:
			seen <- gateLost
		}
	}()
	var verdict gateVerdict
	select {
	case c.srv.gate <- struct{}{}:
		c.nc.SetReadDeadline(past)
		verdict = <-seen
		c.nc.SetReadDeadline(time.Time{})
		if verdict == gateUnwatched {
			return gateWon
		}
		c.srv.releaseGate() // the frame that arrived decides, not the gate
	case verdict = <-seen:
		if verdict == gateUnwatched {
			// Shutdown woke the connection's reads. The request in flight
			// is still answered: it waits on, unwatched.
			c.srv.gate <- struct{}{}
			return gateWon
		}
	}
	if verdict == gateCancelled {
		c.recordCancel()
	}
	return verdict
}

func (c *conn) handleStmt(m *wire.Stmt) error {
	stmt, err := quel.Parse(m.Text)
	if err != nil {
		return c.writeError(wire.CodeParse, err.Error())
	}
	return c.execParsed(stmt, m.Tx, m.Cursor, m.Fetch)
}

func (c *conn) handlePrepare(m *wire.Prepare) error {
	stmt, err := quel.Parse(m.Text)
	if err != nil {
		return c.writeError(wire.CodeParse, err.Error())
	}
	if !admit(&c.srv.nStmts, c.srv.opt.MaxStmts) {
		return c.writeError(wire.CodeLimit, "too many prepared statements")
	}
	c.nextHandle++
	c.stmts[c.nextHandle] = stmt
	return c.write(wire.TPrepared, &wire.Prepared{Stmt: c.nextHandle})
}

func (c *conn) handleStmtExec(m *wire.StmtExec) error {
	stmt, ok := c.stmts[m.Stmt]
	if !ok {
		return c.writeError(wire.CodeBadHandle, fmt.Sprintf("no prepared statement %d", m.Stmt))
	}
	return c.execParsed(stmt, m.Tx, m.Cursor, m.Fetch)
}

// execParsed runs one parsed statement on the connection's session — a
// write under the gate, a read at a snapshot — and answers with TResult.
// Under a cursor the reply carries the batch (fetch rows at most, and
// never more than fit in its frame) and a cursor opens for the rows left
// over, if any. Without one every row goes in the reply, and a result too
// large for a frame is refused with CodeLimit.
func (c *conn) execParsed(stmt quel.Statement, tx int, wantCursor bool, fetch int) error {
	if tx != 0 && (c.tx == nil || tx != c.txHandle) {
		return c.writeError(wire.CodeBadHandle, fmt.Sprintf("no transaction %d", tx))
	}
	preGate := time.Now()
	release, err := c.enterGate(quel.Writes(stmt))
	if release == nil {
		return err
	}
	start := time.Now()
	res, err := c.sess.RunParsed(stmt)
	release()
	if err != nil {
		return c.writeError(wire.CodeExec, err.Error())
	}
	out := toWireResult(res)
	out.WallNs = time.Since(start).Nanoseconds()
	if c.trace != nil {
		// Attached before the batch is sized, which counts it, and
		// filled in last.
		out.Server = &wire.ServerBreakdown{SpanID: c.spanID}
	}
	if wantCursor {
		if n := c.srv.batch(out.FrameRows(), fetch); n > 0 && len(out.Rows) > n {
			if !admit(&c.srv.nCursors, c.srv.opt.MaxCursors) {
				return c.writeError(wire.CodeLimit, "too many open cursors")
			}
			c.nextHandle++
			c.cursors[c.nextHandle] = &cursor{rows: out.Rows[n:]}
			out.Cursor = c.nextHandle
			out.More = true
			out.Rows = out.Rows[:n]
		}
	}
	if bd := out.Server; bd != nil {
		// Partition the service wall exactly: admission is dispatch to
		// the gate attempt, gate is the wait for the statement gate (none
		// for a read), and compute is the remainder (execution plus
		// response build), so the three always sum to WallNs.
		bd.WallNs = time.Since(c.reqStart).Nanoseconds()
		bd.AdmissionNs = preGate.Sub(c.reqStart).Nanoseconds()
		bd.GateNs = start.Sub(preGate).Nanoseconds()
		bd.ComputeNs = bd.WallNs - bd.AdmissionNs - bd.GateNs
		c.breakdown = bd
	}
	return c.write(wire.TResult, out)
}

// batch is the row count of a cursored reply: the rows the client asked
// for — FetchBatch when it asked for none, every row that fits when that
// is zero too — and never more than fit, the rows its frame holds.
func (s *Server) batch(fit, asked int) int {
	if asked <= 0 {
		asked = s.opt.FetchBatch
	}
	if asked > 0 && asked < fit {
		return asked
	}
	return fit
}

func (c *conn) handleBegin() error {
	if c.tx != nil {
		return c.writeError(wire.CodeExec, "transaction already open on this connection")
	}
	if release, err := c.enterGate(true); release == nil {
		return err
	}
	tx, err := c.sess.Begin()
	if err != nil {
		c.srv.releaseGate()
		return c.writeError(wire.CodeExec, err.Error())
	}
	c.srv.nTx.Add(1)
	c.tx = tx
	c.nextHandle++
	c.txHandle = c.nextHandle
	return c.write(wire.TBegun, &wire.Begun{Tx: c.txHandle})
}

func (c *conn) handleTxEnd(handle int, commit bool) error {
	if c.tx == nil || handle != c.txHandle {
		return c.writeError(wire.CodeBadHandle, fmt.Sprintf("no transaction %d", handle))
	}
	var err error
	if commit {
		err = c.tx.Commit()
	} else {
		err = c.tx.Rollback()
	}
	c.tx = nil
	c.txHandle = 0
	c.srv.nTx.Add(-1)
	c.srv.releaseGate()
	if err != nil {
		return c.writeError(wire.CodeExec, err.Error())
	}
	return c.write(wire.TOK, &wire.OK{})
}

func (c *conn) handleFetch(m *wire.Fetch) error {
	cur, ok := c.cursors[m.Cursor]
	if !ok {
		return c.writeError(wire.CodeBadHandle, fmt.Sprintf("no cursor %d", m.Cursor))
	}
	// A cursor always holds rows: it closes when its last one is fetched.
	max := c.srv.batch(wire.FetchedRows(len(cur.rows[0])), m.Max)
	out := &wire.Fetched{}
	if len(cur.rows) > max {
		out.Rows = cur.rows[:max]
		cur.rows = cur.rows[max:]
		out.More = true
	} else {
		out.Rows = cur.rows
		cur.rows = nil
		delete(c.cursors, m.Cursor)
		c.srv.nCursors.Add(-1)
	}
	return c.write(wire.TFetched, out)
}

// toWireResult converts a quel result for the wire.
func toWireResult(res *quel.Result) *wire.Result {
	out := &wire.Result{
		Message:  res.Message,
		Columns:  res.Columns,
		Rows:     res.Rows,
		Affected: res.Affected,
		CostMs:   res.CostMs,
	}
	if len(res.Sections) > 0 {
		out.Sections = make([]wire.Section, len(res.Sections))
		for i, s := range res.Sections {
			out.Sections[i] = wire.Section(s)
		}
	}
	return out
}
