// Package client speaks procserved's framed wire protocol
// (docs/SERVING.md). It has two layers:
//
//   - Conn, the control plane: one framed connection with explicit
//     statements, transactions, cursors, and bench-world calls. The
//     served bench harness uses it to open worlds and drive sessions.
//   - A database/sql driver named "dbproc" (driver.go), so any Go
//     program can sql.Open("dbproc", "host:port") and run QUEL through
//     the standard interfaces.
//
// One request is in flight per Conn at a time (the protocol is strictly
// request/response); Conn serializes callers. Context cancellation
// mid-request sends a TCancel frame and then keeps reading — the server
// always answers the in-flight request, either with its result or with
// a CodeCancelled error, so the connection stays usable.
package client

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dbproc/internal/obs"
	"dbproc/internal/wire"
)

// Conn is one wire-protocol connection.
type Conn struct {
	nc net.Conn
	fr *wire.Reader

	// wmu guards frame writes: the cancel hook writes TCancel while the
	// request goroutine is blocked reading the response.
	wmu sync.Mutex
	fw  *wire.Writer

	// hook counts the cancel hook exchange armed for the request in
	// flight; onCancel is sendCancel, bound once.
	hook     sync.WaitGroup
	onCancel func()

	// mu serializes requests (one in flight per connection).
	mu sync.Mutex
	// broken marks the stream unusable (read error, or a cancelled
	// request whose response never arrived): framing is lost, so every
	// later request fails fast instead of misreading.
	broken bool

	// tracer, when non-nil, stamps a trace context onto every request
	// that can carry one and accounts the round trip (trace.go). connID
	// is the tracer's id for this connection.
	tracer *Tracer
	connID int64
}

// Dial connects and performs the version handshake.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, fr: wire.NewReader(nc), fw: wire.NewWriter(nc)}
	c.onCancel = c.sendCancel
	if err := c.send(wire.THello, &wire.Hello{Version: wire.Version, Client: "dbproc/client"}); err != nil {
		nc.Close()
		return nil, err
	}
	msg, err := c.read()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	if _, ok := msg.(*wire.HelloOK); !ok {
		nc.Close()
		if werr, isErr := msg.(*wire.Error); isErr {
			return nil, werr
		}
		return nil, fmt.Errorf("client: handshake: unexpected %T", msg)
	}
	return c, nil
}

// Close closes the underlying connection; the server rolls back any
// open transaction and frees the connection's handles.
func (c *Conn) Close() error { return c.nc.Close() }

func (c *Conn) send(typ byte, msg any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fw.WriteFrame(typ, msg)
}

func (c *Conn) read() (any, error) {
	typ, payload, err := c.fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	return wire.Decode(typ, payload)
}

// cancelDeadline is how long a cancelled request keeps waiting for the
// server's answer before the connection is declared broken.
const cancelDeadline = 10 * time.Second

// roundTrip sends one request and reads its response. If ctx is
// cancelled while waiting, a TCancel frame goes out and the read
// continues under a deadline: the server's answer (usually
// CodeCancelled) is consumed so the next request sees a clean stream.
func (c *Conn) roundTrip(ctx context.Context, typ byte, msg any) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, fmt.Errorf("client: connection is broken")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Propagate a fresh trace context: this round trip is the root span,
	// and the server parents its own span under SpanID. Requests that
	// cannot carry a context (Ping) stay untraced.
	if t := c.tracer; t != nil {
		tc := &wire.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
		if wire.Attach(msg, tc) {
			start := time.Now()
			resp, err := c.exchange(ctx, typ, msg)
			t.finish(c.connID, tc, wire.Name(typ), start, time.Since(start).Nanoseconds(), resp, err, ctx)
			return resp, err
		}
	}
	return c.exchange(ctx, typ, msg)
}

// exchange is the locked request/response cycle behind roundTrip. It
// starts no goroutine: the cancel hook runs (on one of the context
// package's) only if ctx ends while the response is outstanding.
func (c *Conn) exchange(ctx context.Context, typ byte, msg any) (any, error) {
	if err := c.send(typ, msg); err != nil {
		c.broken = true
		return nil, err
	}
	if ctx.Done() == nil {
		return c.response()
	}
	c.hook.Add(1)
	stop := context.AfterFunc(ctx, c.onCancel)
	resp, err := c.response()
	if stop() {
		c.hook.Done() // it will never run
		return resp, err
	}
	// The hook started: wait it out, so that its frame and its deadline
	// are not left racing the next request.
	c.hook.Wait()
	c.nc.SetReadDeadline(time.Time{})
	// Whether the server answered with CodeCancelled or with the
	// completed result, the caller cancelled: surface the context error.
	// The response was consumed, so the stream stays clean — unless the
	// backstop deadline fired, and then response marked it broken.
	return nil, ctx.Err()
}

// response reads the response frame; a server Error comes back as the
// error, anything else that fails breaks the connection.
func (c *Conn) response() (any, error) {
	resp, err := c.read()
	if err != nil {
		c.broken = true
		return nil, err
	}
	if werr, ok := resp.(*wire.Error); ok {
		return nil, werr
	}
	return resp, nil
}

// sendCancel is the cancel hook: TCancel goes out and the outstanding
// read gets its backstop deadline.
func (c *Conn) sendCancel() {
	defer c.hook.Done()
	// A failed send needs no handling of its own: the response then
	// arrives, or the read deadline breaks the connection.
	_ = c.send(wire.TCancel, &wire.Cancel{})
	c.nc.SetReadDeadline(time.Now().Add(cancelDeadline))
}

// expect runs roundTrip and asserts the response type.
func roundTripAs[T any](c *Conn, ctx context.Context, typ byte, msg any) (T, error) {
	var zero T
	resp, err := c.roundTrip(ctx, typ, msg)
	if err != nil {
		return zero, err
	}
	out, ok := resp.(T)
	if !ok {
		return zero, fmt.Errorf("client: unexpected response %T", resp)
	}
	return out, nil
}

// Ping checks liveness.
func (c *Conn) Ping(ctx context.Context) error {
	_, err := roundTripAs[*wire.Pong](c, ctx, wire.TPing, &wire.Ping{})
	return err
}

// Exec runs one QUEL statement (no cursor: all rows come back in the
// result). A result too large for one frame fails with a CodeLimit
// error, and the connection stays usable.
func (c *Conn) Exec(ctx context.Context, text string) (*wire.Result, error) {
	return roundTripAs[*wire.Result](c, ctx, wire.TStmt, &wire.Stmt{Text: text})
}

// Query runs one QUEL statement with a cursor. The result carries at
// most fetch rows — when fetch <= 0, the server's FetchBatch if it sets
// one, else every row that fits in one frame — and never more than fit;
// the rest stay behind the result's cursor handle for Fetch. A result
// that fits in one frame thus costs one round trip and opens no cursor.
func (c *Conn) Query(ctx context.Context, text string, fetch int) (*wire.Result, error) {
	return roundTripAs[*wire.Result](c, ctx, wire.TStmt, &wire.Stmt{Text: text, Cursor: true, Fetch: fetch})
}

// Prepare parses text server-side and returns its statement handle.
func (c *Conn) Prepare(ctx context.Context, text string) (int, error) {
	p, err := roundTripAs[*wire.Prepared](c, ctx, wire.TPrepare, &wire.Prepare{Text: text})
	if err != nil {
		return 0, err
	}
	return p.Stmt, nil
}

// ExecPrepared executes a prepared statement.
func (c *Conn) ExecPrepared(ctx context.Context, stmt, tx int, cursored bool, fetch int) (*wire.Result, error) {
	return roundTripAs[*wire.Result](c, ctx, wire.TStmtExec, &wire.StmtExec{Stmt: stmt, Tx: tx, Cursor: cursored, Fetch: fetch})
}

// CloseStmt frees a prepared statement handle.
func (c *Conn) CloseStmt(ctx context.Context, stmt int) error {
	_, err := roundTripAs[*wire.OK](c, ctx, wire.TStmtClose, &wire.StmtClose{Stmt: stmt})
	return err
}

// Begin opens a transaction; the server holds its statement gate until
// Commit or Rollback, so no other connection interleaves.
func (c *Conn) Begin(ctx context.Context) (int, error) {
	b, err := roundTripAs[*wire.Begun](c, ctx, wire.TBegin, &wire.Begin{})
	if err != nil {
		return 0, err
	}
	return b.Tx, nil
}

// Commit commits transaction tx.
func (c *Conn) Commit(ctx context.Context, tx int) error {
	_, err := roundTripAs[*wire.OK](c, ctx, wire.TCommit, &wire.Commit{Tx: tx})
	return err
}

// Rollback rolls back transaction tx.
func (c *Conn) Rollback(ctx context.Context, tx int) error {
	_, err := roundTripAs[*wire.OK](c, ctx, wire.TRollback, &wire.Rollback{Tx: tx})
	return err
}

// Fetch pulls the next batch from a cursor: at most max rows, chosen as
// in Query when max <= 0, and never more than fit in one frame (a larger
// max is clamped). The cursor closes itself (server-side) when the
// response's More is false.
func (c *Conn) Fetch(ctx context.Context, cursor, max int) (*wire.Fetched, error) {
	return roundTripAs[*wire.Fetched](c, ctx, wire.TFetch, &wire.Fetch{Cursor: cursor, Max: max})
}

// CloseCursor frees a cursor handle early (idempotent).
func (c *Conn) CloseCursor(ctx context.Context, cursor int) error {
	_, err := roundTripAs[*wire.OK](c, ctx, wire.TCursorClose, &wire.CursorClose{Cursor: cursor})
	return err
}

// WorldOpen builds a bench world server-side: an engine with its
// sessions opened and the canonical workload dealt across them.
func (c *Conn) WorldOpen(ctx context.Context, open *wire.WorldOpen) (*wire.WorldOpened, error) {
	return roundTripAs[*wire.WorldOpened](c, ctx, wire.TWorldOpen, open)
}

// WorldNext executes session's next dealt operation in the world.
func (c *Conn) WorldNext(ctx context.Context, world, session int) (*wire.WorldStep, error) {
	return roundTripAs[*wire.WorldStep](c, ctx, wire.TWorldNext, &wire.WorldNext{World: world, Session: session})
}

// WorldStats seals the world and returns its aggregate result; the
// first call finishes the engine, later calls return the same stats.
func (c *Conn) WorldStats(ctx context.Context, world int) (*wire.WorldStatsResult, error) {
	return roundTripAs[*wire.WorldStatsResult](c, ctx, wire.TWorldStats, &wire.WorldStats{World: world})
}

// WorldClose frees the world.
func (c *Conn) WorldClose(ctx context.Context, world int) error {
	_, err := roundTripAs[*wire.OK](c, ctx, wire.TWorldClose, &wire.WorldClose{World: world})
	return err
}
