package wire

import (
	"bytes"
	"testing"
)

// TestAttachTraceOfAgree: every request type Attach accepts must yield
// the same context back through TraceOf after an encode/decode round
// trip, and the sum helper must match the documented partition.
func TestAttachTraceOfAgree(t *testing.T) {
	tc := &TraceContext{TraceID: "t1", SpanID: "s1", Sampled: true}
	msgs := []struct {
		typ byte
		msg any
	}{
		{TStmt, &Stmt{Text: "x"}},
		{TPrepare, &Prepare{Text: "x"}},
		{TStmtExec, &StmtExec{Stmt: 1}},
		{TStmtClose, &StmtClose{Stmt: 1}},
		{TBegin, &Begin{}},
		{TCommit, &Commit{Tx: 1}},
		{TRollback, &Rollback{Tx: 1}},
		{TFetch, &Fetch{Cursor: 1}},
		{TCursorClose, &CursorClose{Cursor: 1}},
		{TWorldNext, &WorldNext{World: 1}},
		{TWorldStats, &WorldStats{World: 1}},
	}
	for _, m := range msgs {
		if !Attach(m.msg, tc) {
			t.Fatalf("Attach refused %T", m.msg)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m.typ, m.msg); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		got := TraceOf(dec)
		if got == nil || *got != *tc {
			t.Errorf("%T: trace context did not survive the wire: %+v", m.msg, got)
		}
	}
	if Attach(&Ping{}, tc) || TraceOf(&Ping{}) != nil {
		t.Error("Ping should not carry a trace context")
	}
	bd := &ServerBreakdown{WallNs: 60, AdmissionNs: 10, GateNs: 20, LockWaitNs: 5, IONs: 5, RecomputeNs: 5, ComputeNs: 15}
	if bd.SegmentSum() != bd.WallNs {
		t.Errorf("SegmentSum %d != WallNs %d", bd.SegmentSum(), bd.WallNs)
	}
}

// TestTracingOffByteIdentity pins the encoded bytes of every frame a
// tracing-off client or server produces, at protocol version 2 (the
// version 1 goldens were the JSON payloads this codec replaced). It is
// the wire half of tracing's compatibility contract: the trace context
// and the server breakdown trail a message's own fields behind a presence
// byte, so a client that never sets Trace and a server that never
// attaches a breakdown put exactly the untraced bytes on the wire, and
// the traced frame is those bytes plus the section — which the test also
// checks, for every frame that can carry one.
func TestTracingOffByteIdentity(t *testing.T) {
	tc := &TraceContext{TraceID: "3f2a9c1d00aa55ee", SpanID: "0000000000000001", Sampled: true}
	bd := &ServerBreakdown{SpanID: "00000000000000aa", WallNs: 52000, AdmissionNs: 1000, GateNs: 11000, ComputeNs: 40000}
	frames := []struct {
		name string
		typ  byte
		msg  any
		want string // payload inside the frame
	}{
		{"stmt", TStmt, &Stmt{Text: "retrieve (e.all)"},
			"\x00\x10retrieve (e.all)\x00\x00"},
		{"stmt_tx_cursor", TStmt, &Stmt{Text: "retrieve (e.all)", Tx: 3, Cursor: true, Fetch: 16},
			"\x01\x10retrieve (e.all)\x06 "},
		{"prepare", TPrepare, &Prepare{Text: "retrieve (e.all)"},
			"\x10retrieve (e.all)"},
		{"stmt_exec", TStmtExec, &StmtExec{Stmt: 2, Cursor: true},
			"\x01\x04\x00\x00"},
		{"stmt_close", TStmtClose, &StmtClose{Stmt: 2},
			"\x04"},
		{"begin", TBegin, &Begin{},
			""},
		{"commit", TCommit, &Commit{Tx: 4},
			"\b"},
		{"rollback", TRollback, &Rollback{Tx: 4},
			"\b"},
		{"fetch", TFetch, &Fetch{Cursor: 7, Max: 32},
			"\x0e@"},
		{"cursor_close", TCursorClose, &CursorClose{Cursor: 7},
			"\x0e"},
		{"result", TResult, &Result{Message: "appended", Affected: 3, CostMs: 1.5, WallNs: 42},
			"\x00\bappended\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\xf8?T\x00"},
		{"result_rows", TResult, &Result{Columns: []string{"age"}, Rows: [][]int64{{30}}, Cursor: 7, More: true},
			"\x01\x00\x01\x03age\x01\x01<\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x0e"},
		{"world_next", TWorldNext, &WorldNext{World: 1, Session: 5},
			"\x02\n"},
		{"world_step", TWorldStep, &WorldStep{Seq: 9, Update: true, CostMs: 2.5, WallNs: 100, WaitNs: 10},
			"\x02\x12\x00\x00\x00\x00\x00\x00\x00\x04@\xc8\x01\x14\x00\x00\x00\x00"},
		{"world_stats", TWorldStats, &WorldStats{World: 1},
			"\x02"},
	}
	payload := func(name string, typ byte, msg any) string {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, msg); err != nil {
			t.Fatalf("%s: WriteFrame: %v", name, err)
		}
		b := buf.Bytes()
		if len(b) < headerSize+1 {
			t.Fatalf("%s: short frame %x", name, b)
		}
		return string(b[headerSize+1:])
	}
	for _, f := range frames {
		got := payload(f.name, f.typ, f.msg)
		if got != f.want {
			t.Errorf("%s: tracing-off payload changed\n got: %q\nwant: %q", f.name, got, f.want)
		}
		switch m := f.msg.(type) {
		case *Result:
			m.Server = bd
		case *WorldStep:
			m.Server = bd
		default:
			if !Attach(f.msg, tc) {
				t.Fatalf("%s: carries neither a trace context nor a breakdown", f.name)
			}
		}
		if on := payload(f.name, f.typ, f.msg); len(on) <= len(got) || on[:len(got)] != got {
			t.Errorf("%s: the untraced payload is not a strict prefix of the traced one\n off: %q\n  on: %q", f.name, got, on)
		}
	}
}
