package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seedFrames are the canonical corpus: one well-formed frame per major
// message type plus adversarial shapes (truncations, wild lengths,
// unknown types, and payloads aimed at the binary decoder's counts).
// TestRegenCorpus writes them to testdata as v2-NN; the checked in
// corpus is what CI's fuzz smoke mutates from. The seed-NN files beside
// them are the version 1 corpus — JSON payloads, which no longer decode
// for a binary frame type and must still not panic.
func seedFrames(t testing.TB) [][]byte {
	frame := func(typ byte, msg any) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, msg); err != nil {
			t.Fatalf("seed frame type %d: %v", typ, err)
		}
		return buf.Bytes()
	}
	// raw frames a payload no encoder produces.
	raw := func(typ byte, payload string) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
		return append(append(b, typ), payload...)
	}
	seeds := [][]byte{
		frame(THello, &Hello{Version: Version, Client: "fuzz"}),
		frame(TStmt, &Stmt{Text: "retrieve (emp.name) where emp.dept = 4", Cursor: true, Fetch: 32}),
		frame(TPrepare, &Prepare{Text: "execute all_employees"}),
		frame(TStmtExec, &StmtExec{Stmt: 1, Tx: 2}),
		frame(TBegin, &Begin{}),
		frame(TFetch, &Fetch{Cursor: 7, Max: 128}),
		frame(TResult, &Result{Columns: []string{"name", "floor"}, Rows: [][]int64{{1, 2}, {3, 4}}, CostMs: 62, Cursor: 7, More: true}),
		frame(TError, &Error{Code: CodeBadHandle, Msg: "no cursor 9"}),
		frame(TWorldOpen, &WorldOpen{Model: "model1", Strategy: "ci", Seed: 1, Clients: 2, Ledger: true, CritPath: true}),
		frame(TWorldStep, &WorldStep{Seq: 14, Tuples: 100, CostMs: 431, WallNs: 812345, WaitNs: 1000}),
		frame(TWorldStats, &WorldStats{World: 1}),
		frame(TCancel, &Cancel{}),
		// Trace-bearing requests and breakdown-bearing responses
		// (docs/TRACING.md): the fuzzer mutates the trace/server sections
		// too, so the decoder's coverage includes the tracing shapes.
		frame(TStmt, &Stmt{Text: "retrieve (emp.all)",
			Trace: &TraceContext{TraceID: "3f2a9c1d00aa55ee", SpanID: "0000000000000001", Sampled: true}}),
		frame(TWorldNext, &WorldNext{World: 1, Session: 3,
			Trace: &TraceContext{TraceID: "deadbeefcafef00d", SpanID: "0000000000000002"}}),
		frame(TResult, &Result{Message: "committed seq 9", Affected: 1, WallNs: 52000,
			Server: &ServerBreakdown{SpanID: "00000000000000aa", WallNs: 52000,
				AdmissionNs: 1000, GateNs: 11000, ComputeNs: 40000}}),
		frame(TWorldStep, &WorldStep{Seq: 15, CostMs: 12, WallNs: 90000, WaitNs: 20000,
			IONs: 30000, RecomputeNs: 10000, ComputeNs: 30000, Phase: "storm",
			Server: &ServerBreakdown{SpanID: "00000000000000ab", WallNs: 95000,
				AdmissionNs: 5000, LockWaitNs: 20000, IONs: 30000, RecomputeNs: 10000, ComputeNs: 30000}}),
	}
	// Adversarial shapes.
	var wild [4]byte
	binary.BigEndian.PutUint32(wild[:], 0xFFFFFFFF)
	seeds = append(seeds,
		wild[:],                     // 4 GiB length claim
		[]byte{0, 0, 0, 0},          // zero length
		[]byte{0, 0, 0, 2, 99, '{'}, // unknown type
		seeds[1][:len(seeds[1])/2],  // half a legitimate frame
		[]byte{0, 0},                // half a header
	)
	// The rest of the version 2 corpus: the other frame shapes, then
	// payloads aimed at each check the binary decoder makes before it
	// allocates.
	huge := string(binary.AppendUvarint(nil, 1<<40))
	seeds = append(seeds,
		frame(TFetched, &Fetched{Rows: [][]int64{{-1, 1 << 62}, {0, -1 << 63}}, More: true}),
		frame(TResult, &Result{Message: "2 sections", Columns: []string{"a"}, Rows: [][]int64{{1}},
			Sections: []Section{{Columns: []string{"b", "c"}, Rows: [][]int64{{2, 3}}}, {}}}),
		frame(TWorldOpened, &WorldOpened{World: 1, Sessions: 2, Ops: []int{20000, 19999}}),
		frame(TWorldStatsResult, &WorldStatsResult{Ops: 40, Queries: 25, Updates: 15, SimTotalMs: 1234.5, HistoryDigest: "00ff"}),
		raw(TWorldNext, "\x80"), // truncated varint
		raw(TWorldNext, "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // 11-byte varint
		raw(TFetched, "\x00\xff\xff\xff\xff\x0f"),                       // row count past the bytes that remain
		raw(TFetched, "\x00"+huge+"\x00"),                               // width 0 under a huge count
		raw(TFetched, "\x00\x02\x7f\x01\x01"),                           // width past the bytes that remain
		raw(TOK, "\x00"),                                                // trailing byte
		raw(TWorldStats, "\x02\x01\x01t\x01s\x01\x00"),                  // trailing byte after the trace section
		raw(TError, "\x7fabc"),                                          // string length past the end
		raw(TResult, "\x00\x00"+huge),                                   // column count past the end
		raw(TResult, "\x00\x00\x00\x00"+huge),                           // section count past the end
		raw(TBegin, "\x02"),                                             // bad presence byte
		raw(TStmt, "\xfe\x00\x00\x00"),                                  // unknown flag bits
		raw(TWorldStep, "\x00\x00\x00\x00\x00\x00"),                     // truncated float
		raw(TWorldOpened, "\x02\x04"+huge),                              // op count past the end
		raw(TWorldOpen, "{\"params\":{\"N\":1e400}}"),                   // JSON type, number out of range
	)
	return seeds
}

// FuzzFrameDecode holds ReadFrame + Decode to: no panic on any input,
// and no allocation driven by the attacker-controlled length prefix
// beyond MaxFrame (ReadFrame validates the length before allocating —
// a 4 GiB claim must fail fast, not OOM).
func FuzzFrameDecode(f *testing.F) {
	for _, s := range seedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(payload) > MaxFrame {
				t.Fatalf("payload %d exceeds MaxFrame", len(payload))
			}
			// Decode must never panic, whatever the payload bytes.
			if _, err := Decode(typ, payload); err != nil {
				return
			}
		}
	})
}

// FuzzFrameRoundTrip: any payload that decodes re-encodes to a frame
// that reads and decodes back to a message with the same encoding (a
// fixpoint of the canonical encoding), i.e. encode∘decode is idempotent
// on the wire.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, s := range seedFrames(f) {
		if len(s) >= 5 {
			f.Add(s[4], s[5:])
		}
	}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		msg, err := Decode(typ, payload)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, msg); err != nil {
			// Only legitimate failure: canonical encoding exceeds MaxFrame.
			if buf.Len() == 0 {
				return
			}
			t.Fatalf("re-encode wrote partial frame: %v", err)
		}
		canon := bytes.Clone(buf.Bytes())
		typ2, payload2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if typ2 != typ {
			t.Fatalf("type %d became %d", typ, typ2)
		}
		msg2, err := Decode(typ2, payload2)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, typ2, msg2); err != nil {
			t.Fatalf("encode of the re-decoded message: %v", err)
		}
		if !bytes.Equal(canon, again.Bytes()) {
			t.Fatalf("round trip changed message: %+v -> %+v", msg, msg2)
		}
	})
}

// TestRegenCorpus rewrites the version 2 part of the checked-in
// FuzzFrameDecode seed corpus (the v2-NN files) from seedFrames. Run
// with WIRE_REGEN_CORPUS=1 after changing the frame format or message
// set.
func TestRegenCorpus(t *testing.T) {
	if os.Getenv("WIRE_REGEN_CORPUS") == "" {
		t.Skip("set WIRE_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzFrameDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seedFrames(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("v2-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
