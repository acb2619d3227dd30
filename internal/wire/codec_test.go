package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
)

// gen draws random field values for the round-trip property test. Empty
// slices come out nil, the form every decoder produces.
type gen struct{ *rand.Rand }

// int64 mixes small values, negatives and the 64-bit extremes.
func (g gen) int64() int64 {
	switch g.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -int64(g.Intn(1000))
	default:
		return int64(g.Uint64())
	}
}

func (g gen) int() int   { return int(g.int64()) }
func (g gen) bool() bool { return g.Intn(2) == 0 }

func (g gen) float() float64 {
	switch g.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MaxFloat64
	case 2:
		return -math.SmallestNonzeroFloat64
	default:
		return g.NormFloat64() * 1e6
	}
}

func (g gen) string() string {
	if g.Intn(4) == 0 {
		return ""
	}
	b := make([]byte, g.Intn(40))
	for i := range b {
		b[i] = byte(g.Intn(256)) // not only UTF-8: the codec moves bytes
	}
	return string(b)
}

func (g gen) strings() []string {
	n := g.Intn(5)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = g.string()
	}
	return ss
}

func (g gen) rows() [][]int64 {
	n, w := g.Intn(6), 1+g.Intn(4)
	if n == 0 {
		return nil
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, w)
		for j := range rows[i] {
			rows[i][j] = g.int64()
		}
	}
	return rows
}

func (g gen) trace() *TraceContext {
	if g.bool() {
		return nil
	}
	return &TraceContext{TraceID: g.string(), SpanID: g.string(), Sampled: g.bool()}
}

func (g gen) breakdown() *ServerBreakdown {
	if g.bool() {
		return nil
	}
	return &ServerBreakdown{SpanID: g.string(), WallNs: g.int64(), AdmissionNs: g.int64(), GateNs: g.int64(),
		LockWaitNs: g.int64(), IONs: g.int64(), RecomputeNs: g.int64(), ComputeNs: g.int64()}
}

// message draws one message of the frame type. The JSON types draw only
// what JSON carries: finite floats, valid UTF-8.
func (g gen) message(typ byte) any {
	switch typ {
	case THello:
		return &Hello{Version: g.Intn(4), Client: "client"}
	case THelloOK:
		return &HelloOK{Version: g.Intn(4), Server: "server"}
	case TPing:
		return &Ping{}
	case TPong:
		return &Pong{}
	case TCancel:
		return &Cancel{}
	case TOK:
		return &OK{}
	case TError:
		return &Error{Code: g.string(), Msg: g.string()}
	case TStmt:
		return &Stmt{Text: g.string(), Tx: g.int(), Cursor: g.bool(), Fetch: g.int(), Trace: g.trace()}
	case TPrepare:
		return &Prepare{Text: g.string(), Trace: g.trace()}
	case TPrepared:
		return &Prepared{Stmt: g.int()}
	case TStmtExec:
		return &StmtExec{Stmt: g.int(), Tx: g.int(), Cursor: g.bool(), Fetch: g.int(), Trace: g.trace()}
	case TStmtClose:
		return &StmtClose{Stmt: g.int(), Trace: g.trace()}
	case TBegin:
		return &Begin{Trace: g.trace()}
	case TBegun:
		return &Begun{Tx: g.int()}
	case TCommit:
		return &Commit{Tx: g.int(), Trace: g.trace()}
	case TRollback:
		return &Rollback{Tx: g.int(), Trace: g.trace()}
	case TFetch:
		return &Fetch{Cursor: g.int(), Max: g.int(), Trace: g.trace()}
	case TFetched:
		return &Fetched{Rows: g.rows(), More: g.bool()}
	case TCursorClose:
		return &CursorClose{Cursor: g.int(), Trace: g.trace()}
	case TResult:
		m := &Result{Message: g.string(), Columns: g.strings(), Rows: g.rows(), Affected: g.int64(),
			CostMs: g.float(), WallNs: g.int64(), Cursor: g.int(), More: g.bool(), Server: g.breakdown()}
		for i := g.Intn(3); i > 0; i-- {
			m.Sections = append(m.Sections, Section{Columns: g.strings(), Rows: g.rows()})
		}
		return m
	case TWorldOpen:
		return &WorldOpen{Params: costmodel.Default(), Model: "model2", Strategy: "uc-avm", Seed: g.int64(),
			Adaptive: g.bool(), Scenario: "storm", R2UpdateFraction: g.Float64(), Clients: g.Intn(9), Ledger: g.bool(), CritPath: g.bool()}
	case TWorldOpened:
		m := &WorldOpened{World: g.int(), Sessions: g.int()}
		for i := g.Intn(4); i > 0; i-- {
			m.Ops = append(m.Ops, g.int())
		}
		return m
	case TWorldNext:
		return &WorldNext{World: g.int(), Session: g.int(), Trace: g.trace()}
	case TWorldStep:
		return &WorldStep{Done: g.bool(), Seq: g.int(), Update: g.bool(), Tuples: g.int(), CostMs: g.float(),
			WallNs: g.int64(), WaitNs: g.int64(), IONs: g.int64(), RecomputeNs: g.int64(), ComputeNs: g.int64(),
			Phase: g.string(), Server: g.breakdown()}
	case TWorldStats:
		return &WorldStats{World: g.int(), Trace: g.trace()}
	case TWorldStatsResult:
		return &WorldStatsResult{Ops: g.Intn(1000), Queries: g.Intn(1000), Updates: g.Intn(1000), Tuples: g.Intn(1000),
			SimTotalMs: g.NormFloat64() * 1e6, Counters: metric.Counters{PageReads: g.int64(), Screens: g.int64()},
			HistoryDigest: "c0ffee", Ledger: []byte("ledger")}
	case TWorldClose:
		return &WorldClose{World: g.int()}
	}
	return nil
}

// TestCodecRoundTripProperty: for every frame type, a random message goes
// through a connection's Writer and Reader and decodes to an equal one.
func TestCodecRoundTripProperty(t *testing.T) {
	g := gen{rand.New(rand.NewSource(14))}
	var pipe bytes.Buffer
	fw, fr := NewWriter(&pipe), NewReader(&pipe)
	for typ := THello; typ <= TWorldClose; typ++ {
		for i := 0; i < 400; i++ {
			msg := g.message(typ)
			if msg == nil {
				t.Fatalf("no generator for frame type %d", typ)
			}
			if err := fw.WriteFrame(typ, msg); err != nil {
				t.Fatalf("type %d: write %+v: %v", typ, msg, err)
			}
			gotTyp, payload, err := fr.ReadFrame()
			if err != nil || gotTyp != typ {
				t.Fatalf("type %d: read back type %d: %v", typ, gotTyp, err)
			}
			got, err := Decode(gotTyp, payload)
			if err != nil {
				t.Fatalf("type %d: decode %+v: %v", typ, msg, err)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("type %d: round trip changed the message\n got: %+v\nwant: %+v", typ, got, msg)
			}
		}
	}
	if _, _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestCodecRowEdges: empty row blocks decode to nil whether they were nil
// or empty, and rows with no common non-zero width fail at encode time
// with an error, writing nothing.
func TestCodecRowEdges(t *testing.T) {
	for _, rows := range [][][]int64{nil, {}} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, TFetched, &Fetched{Rows: rows}); err != nil {
			t.Fatal(err)
		}
		typ, payload, _ := ReadFrame(&buf)
		got, err := Decode(typ, payload)
		if err != nil || got.(*Fetched).Rows != nil {
			t.Fatalf("rows %#v decoded to %#v, %v; want nil", rows, got, err)
		}
	}
	for name, rows := range map[string][][]int64{
		"ragged":      {{1, 2}, {3}},
		"ragged-nil":  {{1}, nil},
		"zero-width":  {{}, {}},
		"first-empty": {nil, {1}},
	} {
		for _, msg := range []any{&Fetched{Rows: rows}, &Result{Rows: rows}, &Result{Sections: []Section{{Rows: rows}}}} {
			var buf bytes.Buffer
			fw := NewWriter(&buf)
			typ := TResult
			if _, ok := msg.(*Fetched); ok {
				typ = TFetched
			}
			if err := fw.WriteFrame(typ, msg); err == nil {
				t.Errorf("%s rows in %T encoded without an error", name, msg)
			}
			if buf.Len() != 0 {
				t.Errorf("%s rows in %T: a failed encode wrote %d bytes", name, msg, buf.Len())
			}
		}
	}
	if err := WriteFrame(io.Discard, TOK, struct{}{}); err == nil {
		t.Error("a value that is no message struct encoded without an error")
	}
}

// TestDecodeValidatesBeforeAllocating: each payload names more than it
// carries. Decode must refuse it — and, because every count is checked
// against the bytes that remain first, without allocating for it.
func TestDecodeValidatesBeforeAllocating(t *testing.T) {
	huge := string(binary.AppendUvarint(nil, 1<<40))
	for _, c := range []struct {
		name    string
		typ     byte
		payload string
		want    string
	}{
		{"truncated varint", TWorldNext, "\x80", "truncated varint"},
		{"11-byte varint", TWorldNext, "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "overflows"},
		{"row count past the end", TFetched, "\x00\xff\xff\xff\xff\x0f", "exceeds"},
		{"width 0, huge count", TFetched, "\x00" + huge + "\x00", "exceed"},
		{"width past the end", TFetched, "\x00\x02\x7f\x01\x01", "exceed"},
		{"trailing byte", TOK, "\x00", "trailing"},
		{"trailing byte after trace", TWorldStats, "\x02\x01\x01t\x01s\x01\x00", "trailing"},
		{"string past the end", TError, "\x7fabc", "exceeds"},
		{"column count past the end", TResult, "\x00\x00" + huge, "exceeds"},
		{"section count past the end", TResult, "\x00\x00\x00\x00" + huge, "exceeds"},
		{"op count past the end", TWorldOpened, "\x02\x04" + huge, "exceeds"},
		{"bad presence byte", TBegin, "\x02", "presence"},
		{"unknown flag bits", TStmt, "\xfe\x00\x00\x00", "flag"},
		{"truncated float", TWorldStep, "\x00\x00\x00\x00\x00\x00", "float"},
		{"version 1 JSON payload", TStmt, `{"text":"retrieve (e.all)"}`, ""},
	} {
		payload := []byte(c.payload)
		// TotalAlloc moves by whole spans when a cache refills, which a
		// loaded host can make happen inside any one Decode: take the
		// least of a few. An allocation sized by the claim shows in all.
		var err error
		got := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = Decode(c.typ, payload)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode error %v, want one containing %q", c.name, err, c.want)
		}
		// The message struct, the error values and their text: small
		// allocations, none sized by what the payload claims.
		if got > 4096 {
			t.Errorf("%s: Decode allocated %d bytes on the way to refusing a %d-byte payload", c.name, got, len(payload))
		}
	}
}

// TestCodecAllocations are the allocation guards that replace the frozen
// JSON replica benchmark: a world step encodes into a connection's
// buffer without allocating and decodes into its struct alone, and a
// 40-row result decodes into a flat value slice and one slice of row
// headers (144 allocations as JSON).
func TestCodecAllocations(t *testing.T) {
	step := &WorldStep{Seq: 123456, Tuples: 100, CostMs: 84.25, WallNs: 11_250}
	res := &Result{Message: "40 tuple(s) (from cache)", Columns: []string{"tid", "skey", "jkey"}, CostMs: 30}
	for i := int64(0); i < 40; i++ {
		res.Rows = append(res.Rows, []int64{10_000 + i, 10_000 + i, 977 + i})
	}
	fw := NewWriter(io.Discard)
	for _, c := range []struct {
		name           string
		typ            byte
		msg            any
		encode, decode float64
	}{
		{"world step", TWorldStep, step, 0, 2},
		{"40-row result", TResult, res, 0, 10},
	} {
		encode := testing.AllocsPerRun(100, func() {
			if err := fw.WriteFrame(c.typ, c.msg); err != nil {
				t.Fatal(err)
			}
		})
		if encode > c.encode {
			t.Errorf("%s: encode into a reused buffer made %.0f allocations, want <= %.0f", c.name, encode, c.encode)
		}
		var frame bytes.Buffer
		if err := WriteFrame(&frame, c.typ, c.msg); err != nil {
			t.Fatal(err)
		}
		payload := frame.Bytes()[headerSize+1:]
		decode := testing.AllocsPerRun(100, func() {
			if _, err := Decode(c.typ, payload); err != nil {
				t.Fatal(err)
			}
		})
		if decode > c.decode {
			t.Errorf("%s: decode made %.0f allocations, want <= %.0f", c.name, decode, c.decode)
		}
	}
}

// TestFrameRowsFit: a batch of FrameRows (FetchedRows) rows always
// encodes within MaxFrame, even when every value and integer field takes
// its worst-case ten bytes and the integers a server fills in after
// sizing are set afterwards; and the rule wastes less than a row plus the
// slack of its length bounds.
func TestFrameRowsFit(t *testing.T) {
	g := gen{rand.New(rand.NewSource(29))}
	worst := func(n, w int) [][]int64 {
		flat := make([]int64, n*w)
		for i := range flat {
			flat[i] = math.MinInt64 // zigzag 2^64-1: ten bytes
		}
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = flat[i*w : (i+1)*w]
		}
		return rows
	}
	check := func(what string, typ byte, msg any, w int) {
		t.Helper()
		var frame bytes.Buffer
		if err := WriteFrame(&frame, typ, msg); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := frame.Len() - headerSize; MaxFrame-n >= w*maxVarint+512 {
			t.Errorf("%s: the frame holds %d bytes, %d short of MaxFrame", what, n, MaxFrame-n)
		}
	}
	for i := 0; i < 40; i++ {
		w := 1 + g.Intn(12)
		m := g.message(TResult).(*Result)
		for j := range m.Sections {
			if rows := m.Sections[j].Rows; len(rows) > 0 {
				m.Sections[j].Rows = worst(len(rows), len(rows[0]))
			}
		}
		m.Rows = worst(MaxFrame/(w*maxVarint), w)
		n := m.FrameRows()
		if n <= 0 || n >= len(m.Rows) {
			t.Fatalf("width %d: FrameRows %d of %d rows", w, n, len(m.Rows))
		}
		m.Rows = m.Rows[:n]
		m.Affected, m.WallNs, m.Cursor, m.More = math.MinInt64, math.MinInt64, math.MinInt, true
		if bd := m.Server; bd != nil {
			*bd = ServerBreakdown{SpanID: bd.SpanID, WallNs: math.MinInt64, AdmissionNs: math.MinInt64, GateNs: math.MinInt64,
				LockWaitNs: math.MinInt64, IONs: math.MinInt64, RecomputeNs: math.MinInt64, ComputeNs: math.MinInt64}
		}
		check("result", TResult, m, w)
		check("fetched", TFetched, &Fetched{Rows: worst(FetchedRows(w), w), More: true}, w)
	}
	if n := (&Result{Rows: [][]int64{{1}}, Message: strings.Repeat("x", MaxFrame)}).FrameRows(); n != 0 {
		t.Fatalf("a result whose message fills the frame has room for %d rows", n)
	}
}

// TestBuffersShrinkAfterWideFrame: a Reader or Writer that grew for a
// near-MaxFrame frame does not keep that buffer for the small frames
// that follow.
func TestBuffersShrinkAfterWideFrame(t *testing.T) {
	var pipe bytes.Buffer
	fw, fr := NewWriter(&pipe), NewReader(&pipe)
	wide := &Error{Code: CodeExec, Msg: strings.Repeat("x", MaxFrame-64)}
	for _, msg := range []*Error{wide, {Code: CodeExec, Msg: "small"}} {
		if err := fw.WriteFrame(TError, msg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(fw.buf) > keepBuffer || cap(fr.buf) > keepBuffer {
		t.Fatalf("after a small frame the writer keeps %d bytes and the reader %d, want <= %d",
			cap(fw.buf), cap(fr.buf), keepBuffer)
	}
}

// TestReaderPeek: Peek reports the next frame's type and length without
// consuming it, and an input that ends inside a header consumes nothing
// either.
func TestReaderPeek(t *testing.T) {
	var pipe bytes.Buffer
	fw, fr := NewWriter(&pipe), NewReader(&pipe)
	if err := fw.WriteFrame(TCancel, &Cancel{}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(TWorldNext, &WorldNext{World: 1, Session: 2}); err != nil {
		t.Fatal(err)
	}
	pipe.Write([]byte{0, 0}) // half a header
	for _, want := range []struct {
		typ byte
		n   int
	}{{TCancel, 1}, {TWorldNext, 3}} {
		for i := 0; i < 2; i++ {
			if typ, n, err := fr.Peek(); err != nil || typ != want.typ || n != want.n {
				t.Fatalf("Peek = type %d, length %d, %v; want type %d, length %d", typ, n, err, want.typ, want.n)
			}
		}
		if typ, _, err := fr.ReadFrame(); err != nil || typ != want.typ {
			t.Fatalf("ReadFrame after Peek = type %d, %v", typ, err)
		}
	}
	if _, _, err := fr.Peek(); err != io.ErrUnexpectedEOF {
		t.Fatalf("Peek of half a header: %v, want io.ErrUnexpectedEOF", err)
	}
}
