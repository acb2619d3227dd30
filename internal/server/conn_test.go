package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dbproc/internal/dbtest"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
)

// peer is a raw wire-protocol client: the tests send the frames the
// driver never would.
type peer struct {
	t  *testing.T
	nc net.Conn
	fr *wire.Reader
	fw *wire.Writer
}

func startServer(t *testing.T, opt Options) (*Server, string) {
	t.Helper()
	srv := New(opt)
	return srv, serve(t, srv)
}

// serve listens for srv on a loopback port and drains it when the test
// ends.
func serve(t *testing.T, srv *Server) string {
	t.Helper()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return addr
}

// dial connects and shakes hands.
func dial(t *testing.T, addr string) *peer {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	p := &peer{t: t, nc: nc, fr: wire.NewReader(nc), fw: wire.NewWriter(nc)}
	p.send(wire.THello, &wire.Hello{Version: wire.Version, Client: "conn_test"})
	if _, ok := p.recv().(*wire.HelloOK); !ok {
		t.Fatal("handshake refused")
	}
	return p
}

func (p *peer) send(typ byte, msg any) {
	p.t.Helper()
	if err := p.fw.WriteFrame(typ, msg); err != nil {
		p.t.Fatalf("send type %d: %v", typ, err)
	}
}

// recv reads one response under a deadline, so a server that never
// answers fails the test instead of hanging it.
func (p *peer) recv() any {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := p.fr.ReadFrame()
	if err != nil {
		p.t.Fatalf("recv: %v", err)
	}
	msg, err := wire.Decode(typ, payload)
	if err != nil {
		p.t.Fatalf("recv: %v", err)
	}
	return msg
}

// call is send plus recv.
func (p *peer) call(typ byte, msg any) any {
	p.t.Helper()
	p.send(typ, msg)
	return p.recv()
}

// wantError asserts an error response with the code.
func wantError(t *testing.T, resp any, code string) {
	t.Helper()
	werr, ok := resp.(*wire.Error)
	if !ok || werr.Code != code {
		t.Fatalf("response %+v, want an error with code %q", resp, code)
	}
}

// wantClosed asserts that the server closed the connection.
func (p *peer) wantClosed() {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := p.fr.ReadFrame(); err != io.EOF {
		p.t.Fatalf("read after the server should have closed: %v, want io.EOF", err)
	}
}

// await polls until cond holds: teardown after a close is asynchronous.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateHolder opens a connection that has a relation to query and holds
// the statement gate through an open transaction.
func gateHolder(t *testing.T, addr string) (holder *peer, tx int) {
	t.Helper()
	holder = dial(t, addr)
	if _, ok := holder.call(wire.TStmt, &wire.Stmt{Text: "create emp (tid, age) cluster on age"}).(*wire.Result); !ok {
		t.Fatal("create failed")
	}
	begun, ok := holder.call(wire.TBegin, &wire.Begin{}).(*wire.Begun)
	if !ok {
		t.Fatal("begin failed")
	}
	return holder, begun.Tx
}

// query is the request the tests park on the gate: a write, since reads
// run at a snapshot and never queue. It changes nothing.
const query = "delete from emp where emp.age < 0"

// TestCancelWhileParkedOnTheGate: a TCancel reaches a request parked on
// the statement gate, which answers CodeCancelled; the gate slot is not
// taken, and the connection goes on to serve requests.
func TestCancelWhileParkedOnTheGate(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	holder, tx := gateHolder(t, addr)
	waiter := dial(t, addr)

	waiter.send(wire.TStmt, &wire.Stmt{Text: query})
	waiter.send(wire.TCancel, &wire.Cancel{})
	wantError(t, waiter.recv(), wire.CodeCancelled)
	if _, ok := waiter.call(wire.TPing, &wire.Ping{}).(*wire.Pong); !ok {
		t.Fatal("no pong after a cancelled request")
	}
	if _, ok := holder.call(wire.TCommit, &wire.Commit{Tx: tx}).(*wire.OK); !ok {
		t.Fatal("commit failed")
	}
	if _, ok := waiter.call(wire.TStmt, &wire.Stmt{Text: query}).(*wire.Result); !ok {
		t.Fatal("the cancelled connection cannot run a statement once the gate is free")
	}
	if n := len(srv.gate); n != 0 {
		t.Fatalf("gate holds %d slots with nothing in flight", n)
	}
	if st := srv.Stat(); st.Cancels != 1 {
		t.Fatalf("%d cancels counted, want 1", st.Cancels)
	}
}

// TestClientVanishesWhileParked: a client that closes while its request
// is parked never takes the gate slot, and its handles drain.
func TestClientVanishesWhileParked(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	holder, tx := gateHolder(t, addr)
	waiter := dial(t, addr)
	if _, ok := waiter.call(wire.TPrepare, &wire.Prepare{Text: query}).(*wire.Prepared); !ok {
		t.Fatal("prepare failed")
	}
	before := srv.Stat().Requests
	waiter.send(wire.TStmt, &wire.Stmt{Text: query})
	await(t, "the statement to be in flight", func() bool { return srv.Stat().Requests > before })
	waiter.nc.Close()
	await(t, "the vanished connection's teardown", func() bool {
		st := srv.Stat()
		return st.Conns == 1 && st.Stmts == 0
	})
	if _, ok := holder.call(wire.TCommit, &wire.Commit{Tx: tx}).(*wire.OK); !ok {
		t.Fatal("commit failed")
	}
	if _, ok := holder.call(wire.TStmt, &wire.Stmt{Text: query}).(*wire.Result); !ok {
		t.Fatal("the gate was leaked to the vanished client")
	}
	if n := len(srv.gate); n != 0 {
		t.Fatalf("gate holds %d slots with nothing in flight", n)
	}
}

// TestStaleCancelIsCountedAndDropped: a TCancel that arrives after its
// request was answered is counted once, names that request's trace in
// the flight recorder, and leaves the next request alone.
func TestStaleCancelIsCountedAndDropped(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	rec := telemetry.NewRecorder(64)
	srv, addr := startServer(t, Options{Recorder: rec})
	p := dial(t, addr)
	tc := &wire.TraceContext{TraceID: "7ace7ace7ace7ace", SpanID: "0000000000000001"}
	if _, ok := p.call(wire.TStmt, &wire.Stmt{Text: "create emp (tid, age) cluster on age", Trace: tc}).(*wire.Result); !ok {
		t.Fatal("create failed")
	}
	p.send(wire.TCancel, &wire.Cancel{}) // too late: already answered
	if _, ok := p.call(wire.TStmt, &wire.Stmt{Text: query}).(*wire.Result); !ok {
		t.Fatal("a stale cancel disturbed the next request")
	}
	st := srv.Stat()
	if st.Cancels != 1 || st.Errors != 0 {
		t.Fatalf("cancels %d, errors %d; want 1 and 0", st.Cancels, st.Errors)
	}
	cancels := 0
	evs, _ := rec.Snapshot()
	for _, ev := range evs {
		if ev.Kind == telemetry.EvCancel {
			cancels++
			if ev.Detail != "trace="+tc.TraceID {
				t.Errorf("cancel event detail %q, want the trace of the request it was aimed at", ev.Detail)
			}
		}
	}
	if cancels != 1 {
		t.Fatalf("%d cancel flight events, want 1", cancels)
	}
}

// TestSecondRequestWhileParked: the protocol is one request at a time; a
// second request frame sent while the first is parked is a protocol
// violation that closes the connection, without taking the gate.
func TestSecondRequestWhileParked(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	holder, tx := gateHolder(t, addr)
	waiter := dial(t, addr)
	waiter.send(wire.TStmt, &wire.Stmt{Text: query})
	waiter.send(wire.TStmt, &wire.Stmt{Text: query})
	wantError(t, waiter.recv(), wire.CodeProtocol)
	waiter.wantClosed()
	if _, ok := holder.call(wire.TCommit, &wire.Commit{Tx: tx}).(*wire.OK); !ok {
		t.Fatal("commit failed")
	}
	if _, ok := holder.call(wire.TStmt, &wire.Stmt{Text: query}).(*wire.Result); !ok {
		t.Fatal("the gate was leaked to the closed connection")
	}
	if n := len(srv.gate); n != 0 {
		t.Fatalf("gate holds %d slots with nothing in flight", n)
	}
}

// TestMalformedPayload: a payload the binary decoder refuses is answered
// with CodeProtocol and the connection closes.
func TestMalformedPayload(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	_, addr := startServer(t, Options{})
	for name, payload := range map[string]string{
		"truncated varint":    "\x80",
		"trailing bytes":      "\x02\x02\x00",
		"version 1 JSON":      `{"world":1,"session":0}`,
		"count past the end":  "\x02\x02\x01\x7f",
		"11-byte varint":      strings.Repeat("\xff", 10) + "\x01",
		"bad presence marker": "\x02\x02\x09",
	} {
		p := dial(t, addr)
		frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
		frame = append(append(frame, wire.TWorldNext), payload...)
		if _, err := p.nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp := p.recv()
		if werr, ok := resp.(*wire.Error); !ok || werr.Code != wire.CodeProtocol {
			t.Fatalf("%s: response %+v, want a protocol error", name, resp)
		}
		p.wantClosed()
	}
}

// TestOversizeResultKeepsTheConnection: a result that does not fit in
// one frame used to fail the frame's encode, and the connection closed
// without an answer. Now what cannot be sent whole is refused with
// CodeLimit — an un-cursored retrieve, a procedure whose later section
// (never cursored) is too large — and the connection serves on; a
// cursored result comes back one frame at a time, however many rows a
// Fetch asks for.
func TestOversizeResultKeepsTheConnection(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	const rows, width = 3000, 41
	cols, set := []string{"k"}, []string{}
	for i := 1; i < width; i++ {
		cols = append(cols, fmt.Sprintf("c%d", i))
		set = append(set, fmt.Sprintf("c%d = %d", i, int64(1)<<62)) // ten bytes on the wire
	}
	script := []string{fmt.Sprintf("create big (%s) hash on k width %d buckets 64", strings.Join(cols, ", "), 8*width)}
	for i := 0; i < rows; i++ {
		script = append(script, fmt.Sprintf("append to big (k = %d)", i))
	}
	script = append(script,
		fmt.Sprintf("replace big (%s) where big.k >= 0", strings.Join(set, ", ")),
		"define procedure two as { retrieve (big.k) where big.k = 1 retrieve (big.all) }")
	for _, stmt := range script {
		if _, err := srv.DB().Run(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	p := dial(t, addr)
	alive := func(after string) {
		t.Helper()
		if _, ok := p.call(wire.TPing, &wire.Ping{}).(*wire.Pong); !ok {
			t.Fatalf("no pong after %s", after)
		}
	}

	wantError(t, p.call(wire.TStmt, &wire.Stmt{Text: "retrieve (big.all)"}), wire.CodeLimit)
	alive("an oversize result")
	wantError(t, p.call(wire.TStmt, &wire.Stmt{Text: "execute two", Cursor: true}), wire.CodeLimit)
	alive("an oversize section")
	if st := srv.Stat(); st.Errors != 2 || st.Cursors != 0 {
		t.Fatalf("after two refused results: %+v, want 2 errors and no cursor", st)
	}

	res, ok := p.call(wire.TStmt, &wire.Stmt{Text: "retrieve (big.all)", Cursor: true, Fetch: 1}).(*wire.Result)
	if !ok || len(res.Rows) != 1 || !res.More {
		t.Fatalf("cursored retrieve with a first batch of 1: %+v", res)
	}
	got, fit := len(res.Rows), wire.FetchedRows(width)
	for _, max := range []int{1 << 30, 0} {
		batch, ok := p.call(wire.TFetch, &wire.Fetch{Cursor: res.Cursor, Max: max}).(*wire.Fetched)
		if !ok || len(batch.Rows) != min(fit, rows-got) || batch.More != (got+fit < rows) {
			t.Fatalf("fetch of max %d after %d rows: %d rows (more %v), want %d of what fits in a frame",
				max, got, len(batch.Rows), batch.More, fit)
		}
		got += len(batch.Rows)
	}
	if st := srv.Stat(); got != rows || st.Cursors != 0 {
		t.Fatalf("the cursor delivered %d of %d rows and left %d cursors open", got, rows, st.Cursors)
	}
}

// TestShutdownAnswersTheRequestInFlight: Shutdown wakes idle connections
// out of their reads, while a request in flight — here one parked on the
// gate, whose watcher the wake-up also reaches — is still answered. All
// connections close and Shutdown returns well before its timeout.
func TestShutdownAnswersTheRequestInFlight(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, Options{})
	holder, _ := gateHolder(t, addr) // idle, holding the gate
	idle := dial(t, addr)
	busy := dial(t, addr)
	before := srv.Stat().Requests
	busy.send(wire.TStmt, &wire.Stmt{Text: query})
	await(t, "the statement to be in flight", func() bool { return srv.Stat().Requests > before })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v: it waited for something to time out", d)
	}
	// The holder's teardown rolled its transaction back and freed the
	// gate; the parked statement then ran and was answered.
	if _, ok := busy.recv().(*wire.Result); !ok {
		t.Fatal("the request in flight was not answered")
	}
	for _, p := range []*peer{holder, idle, busy} {
		p.wantClosed()
	}
	if st := srv.Stat(); st.Conns != 0 || st.Tx != 0 {
		t.Fatalf("after the drain: %+v", st)
	}
	if n := len(srv.gate); n != 0 {
		t.Fatalf("gate holds %d slots after the drain", n)
	}
}
