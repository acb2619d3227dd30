package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// The binary payload codec (docs/SERVING.md has the layout of every
// frame type). Integers are zigzag varints, counts and lengths uvarints,
// floats 8 bytes little endian, booleans bits of one flags byte, strings
// and row blocks length-prefixed. An optional trace context (requests) or
// server breakdown (responses) trails the message's own fields behind a
// presence byte, so an untraced frame is a strict prefix of the traced
// one.
//
// The decoder never trusts a count: before anything is allocated for n
// items, n is checked against the bytes that remain (every item costs at
// least one), so a payload cannot make Decode allocate more than a small
// multiple of its own length — the promise ReadFrame makes for the
// length prefix, carried through the payload. Bytes left over after the
// last field are an error.

// message is a frame payload: each type has exactly one encoding.
type message interface {
	// encode appends the payload to b.
	encode(b []byte) ([]byte, error)
	// decode fills the receiver from a whole payload. It keeps no
	// reference to p.
	decode(p []byte) error
}

// traced is a request that carries a trace context.
type traced interface {
	traceSlot() **TraceContext
}

// errRowWidth refuses a row block the format has no encoding for: the
// decoder takes one non-zero width per block (a zero width would let a
// count name rows that cost no bytes).
var errRowWidth = errors.New("wire: rows must share one non-zero width")

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendFlags packs up to eight booleans into one byte, first flag in
// bit 0.
func appendFlags(b []byte, flags ...bool) []byte {
	var v byte
	for i, f := range flags {
		if f {
			v |= 1 << i
		}
	}
	return append(b, v)
}

// appendRows writes a row block: the row count, then (for a non-empty
// block) the common width and the values row by row.
func appendRows(b []byte, rows [][]int64) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	if len(rows) == 0 {
		return b, nil
	}
	w := len(rows[0])
	b = binary.AppendUvarint(b, uint64(w))
	for _, row := range rows {
		if len(row) != w || w == 0 {
			return b, errRowWidth
		}
		for _, v := range row {
			b = binary.AppendVarint(b, v)
		}
	}
	return b, nil
}

// maxVarint is the most bytes a varint takes: a row value, a count, a
// length or an integer field at its worst.
const maxVarint = binary.MaxVarintLen64

// rowsThatFit returns how many rows of width values one frame holds
// beside rest bytes of other fields, type byte included. The block's
// row count and width and every value count at maxVarint bytes.
func rowsThatFit(rest, width int) int {
	room := MaxFrame - rest - 2*maxVarint
	if room <= 0 || width <= 0 {
		return 0
	}
	return room / (width * maxVarint)
}

// stringsBound bounds a string list's encoding.
func stringsBound(ss []string) int {
	n := maxVarint
	for _, s := range ss {
		n += maxVarint + len(s)
	}
	return n
}

// FrameRows returns how many of m's Rows one TResult frame holds beside
// everything else m carries: more need a cursor, and none with rows to
// send means the rest of m leaves no room for a row. Every integer
// counts at its worst-case length, so filling in Cursor, WallNs or the
// breakdown's times after sizing cannot push the frame past MaxFrame; a
// breakdown must be attached, with its SpanID, before sizing.
func (m *Result) FrameRows() int {
	if len(m.Rows) == 0 {
		return 0
	}
	// Type byte, flags, message, columns and the section count; then
	// Affected, WallNs and Cursor, and CostMs's 8 bytes.
	rest := 2 + maxVarint + len(m.Message) + stringsBound(m.Columns) + maxVarint
	for _, s := range m.Sections {
		rest += stringsBound(s.Columns) + (2+cells(s.Rows))*maxVarint
	}
	rest += 3*maxVarint + 8
	if bd := m.Server; bd != nil {
		rest += 1 + maxVarint + len(bd.SpanID) + 7*maxVarint
	}
	return rowsThatFit(rest, len(m.Rows[0]))
}

// FetchedRows returns how many rows of width values one TFetched frame
// holds; the frame's only other bytes are its type and flags.
func FetchedRows(width int) int { return rowsThatFit(2, width) }

func appendTrace(b []byte, tc *TraceContext) []byte {
	if tc == nil {
		return b
	}
	b = append(b, 1)
	b = appendString(b, tc.TraceID)
	b = appendString(b, tc.SpanID)
	return appendFlags(b, tc.Sampled)
}

func appendBreakdown(b []byte, bd *ServerBreakdown) []byte {
	if bd == nil {
		return b
	}
	b = append(b, 1)
	b = appendString(b, bd.SpanID)
	for _, v := range [...]int64{bd.WallNs, bd.AdmissionNs, bd.GateNs, bd.LockWaitNs, bd.IONs, bd.RecomputeNs, bd.ComputeNs} {
		b = appendInt(b, v)
	}
	return b
}

// decoder reads fields off the front of a payload. The first failure
// sticks: later reads return zero values and finish reports it, so a
// message decodes its fields in a straight line and checks once.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.p = nil
}

// finish reports the sticky error, or trailing bytes.
func (d *decoder) finish() error {
	if d.err == nil && len(d.p) != 0 {
		d.fail("%d trailing bytes", len(d.p))
	}
	return d.err
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		if d.err == nil {
			if n == 0 {
				d.fail("truncated varint")
			} else {
				d.fail("varint overflows 64 bits")
			}
		}
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) int64() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an item count and checks it against the bytes that remain,
// each item costing at least min of them: the check that must come
// before any allocation sized by the count.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.p)/min) {
		d.fail("count %d exceeds the %d bytes that remain", n, len(d.p))
		return 0
	}
	return int(n)
}

func (d *decoder) float() float64 {
	if len(d.p) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

// flags reads a flags byte holding n flags; set bits above them are an
// error.
func (d *decoder) flags(n int) byte {
	if len(d.p) < 1 {
		d.fail("truncated flags")
		return 0
	}
	v := d.p[0]
	d.p = d.p[1:]
	if v>>n != 0 {
		d.fail("unknown flag bits %#x", v)
		return 0
	}
	return v
}

func (d *decoder) string() string {
	n := d.count(1)
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

func (d *decoder) strings() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.string()
	}
	return ss
}

// rows reads a row block into one flat value slice and one slice of row
// headers over it. An empty block decodes to nil.
func (d *decoder) rows() [][]int64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	w := d.uvarint()
	if w == 0 || w > uint64(len(d.p)/n) {
		d.fail("%d rows of width %d exceed the %d bytes that remain", n, w, len(d.p))
		return nil
	}
	width := int(w)
	flat := make([]int64, n*width)
	for i := range flat {
		flat[i] = d.int64()
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// present reports whether an optional trailing section follows.
func (d *decoder) present() bool {
	if len(d.p) == 0 {
		return false
	}
	if d.p[0] != 1 {
		d.fail("bad presence byte %#x", d.p[0])
		return false
	}
	d.p = d.p[1:]
	return true
}

func (d *decoder) trace() *TraceContext {
	if !d.present() {
		return nil
	}
	tc := &TraceContext{TraceID: d.string(), SpanID: d.string()}
	tc.Sampled = d.flags(1)&1 != 0
	return tc
}

func (d *decoder) breakdown() *ServerBreakdown {
	if !d.present() {
		return nil
	}
	bd := &ServerBreakdown{SpanID: d.string()}
	for _, v := range [...]*int64{&bd.WallNs, &bd.AdmissionNs, &bd.GateNs, &bd.LockWaitNs, &bd.IONs, &bd.RecomputeNs, &bd.ComputeNs} {
		*v = d.int64()
	}
	return bd
}

// Frames sent once per connection or world stay JSON: Hello and HelloOK
// so that a peer of another protocol version gets a readable version
// error, WorldOpen and WorldStatsResult because they embed other
// packages' structs (costmodel.Params, metric.Counters), which a hand
// codec would have to shadow field by field.

func encodeJSON(b []byte, m any) ([]byte, error) {
	p, err := json.Marshal(m)
	return append(b, p...), err
}

func (m *Hello) encode(b []byte) ([]byte, error)            { return encodeJSON(b, m) }
func (m *Hello) decode(p []byte) error                      { return json.Unmarshal(p, m) }
func (m *HelloOK) encode(b []byte) ([]byte, error)          { return encodeJSON(b, m) }
func (m *HelloOK) decode(p []byte) error                    { return json.Unmarshal(p, m) }
func (m *WorldOpen) encode(b []byte) ([]byte, error)        { return encodeJSON(b, m) }
func (m *WorldOpen) decode(p []byte) error                  { return json.Unmarshal(p, m) }
func (m *WorldStatsResult) encode(b []byte) ([]byte, error) { return encodeJSON(b, m) }
func (m *WorldStatsResult) decode(p []byte) error           { return json.Unmarshal(p, m) }

// empty decodes a payload that must have no bytes.
func empty(p []byte) error {
	d := decoder{p: p}
	return d.finish()
}

func (m *Ping) encode(b []byte) ([]byte, error)   { return b, nil }
func (m *Ping) decode(p []byte) error             { return empty(p) }
func (m *Pong) encode(b []byte) ([]byte, error)   { return b, nil }
func (m *Pong) decode(p []byte) error             { return empty(p) }
func (m *Cancel) encode(b []byte) ([]byte, error) { return b, nil }
func (m *Cancel) decode(p []byte) error           { return empty(p) }
func (m *OK) encode(b []byte) ([]byte, error)     { return b, nil }
func (m *OK) decode(p []byte) error               { return empty(p) }

func (m *Error) encode(b []byte) ([]byte, error) {
	return appendString(appendString(b, m.Code), m.Msg), nil
}

func (m *Error) decode(p []byte) error {
	d := decoder{p: p}
	m.Code, m.Msg = d.string(), d.string()
	return d.finish()
}

func (m *Stmt) encode(b []byte) ([]byte, error) {
	b = appendFlags(b, m.Cursor)
	b = appendString(b, m.Text)
	b = appendInt(appendInt(b, int64(m.Tx)), int64(m.Fetch))
	return appendTrace(b, m.Trace), nil
}

func (m *Stmt) decode(p []byte) error {
	d := decoder{p: p}
	m.Cursor = d.flags(1)&1 != 0
	m.Text, m.Tx, m.Fetch, m.Trace = d.string(), d.int(), d.int(), d.trace()
	return d.finish()
}

func (m *Prepare) encode(b []byte) ([]byte, error) {
	return appendTrace(appendString(b, m.Text), m.Trace), nil
}

func (m *Prepare) decode(p []byte) error {
	d := decoder{p: p}
	m.Text, m.Trace = d.string(), d.trace()
	return d.finish()
}

func (m *StmtExec) encode(b []byte) ([]byte, error) {
	b = appendFlags(b, m.Cursor)
	b = appendInt(appendInt(appendInt(b, int64(m.Stmt)), int64(m.Tx)), int64(m.Fetch))
	return appendTrace(b, m.Trace), nil
}

func (m *StmtExec) decode(p []byte) error {
	d := decoder{p: p}
	m.Cursor = d.flags(1)&1 != 0
	m.Stmt, m.Tx, m.Fetch, m.Trace = d.int(), d.int(), d.int(), d.trace()
	return d.finish()
}

// encodeHandle and decodeHandle are the shape of every message that is
// one handle and, on requests, a trace context.
func encodeHandle(b []byte, h int, tc *TraceContext) ([]byte, error) {
	return appendTrace(appendInt(b, int64(h)), tc), nil
}

func decodeHandle(p []byte, h *int, tc **TraceContext) error {
	d := decoder{p: p}
	*h = d.int()
	if tc != nil {
		*tc = d.trace()
	}
	return d.finish()
}

func (m *Prepared) encode(b []byte) ([]byte, error)    { return encodeHandle(b, m.Stmt, nil) }
func (m *Prepared) decode(p []byte) error              { return decodeHandle(p, &m.Stmt, nil) }
func (m *StmtClose) encode(b []byte) ([]byte, error)   { return encodeHandle(b, m.Stmt, m.Trace) }
func (m *StmtClose) decode(p []byte) error             { return decodeHandle(p, &m.Stmt, &m.Trace) }
func (m *Begun) encode(b []byte) ([]byte, error)       { return encodeHandle(b, m.Tx, nil) }
func (m *Begun) decode(p []byte) error                 { return decodeHandle(p, &m.Tx, nil) }
func (m *Commit) encode(b []byte) ([]byte, error)      { return encodeHandle(b, m.Tx, m.Trace) }
func (m *Commit) decode(p []byte) error                { return decodeHandle(p, &m.Tx, &m.Trace) }
func (m *Rollback) encode(b []byte) ([]byte, error)    { return encodeHandle(b, m.Tx, m.Trace) }
func (m *Rollback) decode(p []byte) error              { return decodeHandle(p, &m.Tx, &m.Trace) }
func (m *CursorClose) encode(b []byte) ([]byte, error) { return encodeHandle(b, m.Cursor, m.Trace) }
func (m *CursorClose) decode(p []byte) error           { return decodeHandle(p, &m.Cursor, &m.Trace) }
func (m *WorldStats) encode(b []byte) ([]byte, error)  { return encodeHandle(b, m.World, m.Trace) }
func (m *WorldStats) decode(p []byte) error            { return decodeHandle(p, &m.World, &m.Trace) }
func (m *WorldClose) encode(b []byte) ([]byte, error)  { return encodeHandle(b, m.World, nil) }
func (m *WorldClose) decode(p []byte) error            { return decodeHandle(p, &m.World, nil) }

func (m *Begin) encode(b []byte) ([]byte, error) { return appendTrace(b, m.Trace), nil }

func (m *Begin) decode(p []byte) error {
	d := decoder{p: p}
	m.Trace = d.trace()
	return d.finish()
}

func (m *Fetch) encode(b []byte) ([]byte, error) {
	return appendTrace(appendInt(appendInt(b, int64(m.Cursor)), int64(m.Max)), m.Trace), nil
}

func (m *Fetch) decode(p []byte) error {
	d := decoder{p: p}
	m.Cursor, m.Max, m.Trace = d.int(), d.int(), d.trace()
	return d.finish()
}

func (m *Fetched) encode(b []byte) ([]byte, error) {
	return appendRows(appendFlags(b, m.More), m.Rows)
}

func (m *Fetched) decode(p []byte) error {
	d := decoder{p: p}
	m.More = d.flags(1)&1 != 0
	m.Rows = d.rows()
	return d.finish()
}

func (m *Result) encode(b []byte) ([]byte, error) {
	b = appendFlags(b, m.More)
	b = appendString(b, m.Message)
	b = appendStrings(b, m.Columns)
	b, err := appendRows(b, m.Rows)
	if err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, uint64(len(m.Sections)))
	for i := range m.Sections {
		b = appendStrings(b, m.Sections[i].Columns)
		if b, err = appendRows(b, m.Sections[i].Rows); err != nil {
			return b, err
		}
	}
	b = appendInt(b, m.Affected)
	b = appendFloat(b, m.CostMs)
	b = appendInt(appendInt(b, m.WallNs), int64(m.Cursor))
	return appendBreakdown(b, m.Server), nil
}

func (m *Result) decode(p []byte) error {
	d := decoder{p: p}
	m.More = d.flags(1)&1 != 0
	m.Message, m.Columns, m.Rows = d.string(), d.strings(), d.rows()
	// A section is at least its two counts.
	if n := d.count(2); n > 0 {
		m.Sections = make([]Section, n)
		for i := range m.Sections {
			m.Sections[i].Columns, m.Sections[i].Rows = d.strings(), d.rows()
		}
	}
	m.Affected, m.CostMs, m.WallNs, m.Cursor = d.int64(), d.float(), d.int64(), d.int()
	m.Server = d.breakdown()
	return d.finish()
}

func (m *WorldOpened) encode(b []byte) ([]byte, error) {
	b = appendInt(appendInt(b, int64(m.World)), int64(m.Sessions))
	b = binary.AppendUvarint(b, uint64(len(m.Ops)))
	for _, n := range m.Ops {
		b = appendInt(b, int64(n))
	}
	return b, nil
}

func (m *WorldOpened) decode(p []byte) error {
	d := decoder{p: p}
	m.World, m.Sessions = d.int(), d.int()
	if n := d.count(1); n > 0 {
		m.Ops = make([]int, n)
		for i := range m.Ops {
			m.Ops[i] = d.int()
		}
	}
	return d.finish()
}

func (m *WorldNext) encode(b []byte) ([]byte, error) {
	return appendTrace(appendInt(appendInt(b, int64(m.World)), int64(m.Session)), m.Trace), nil
}

func (m *WorldNext) decode(p []byte) error {
	d := decoder{p: p}
	m.World, m.Session, m.Trace = d.int(), d.int(), d.trace()
	return d.finish()
}

func (m *WorldStep) encode(b []byte) ([]byte, error) {
	b = appendFlags(b, m.Done, m.Update)
	b = appendInt(appendInt(b, int64(m.Seq)), int64(m.Tuples))
	b = appendFloat(b, m.CostMs)
	for _, v := range [...]int64{m.WallNs, m.WaitNs, m.IONs, m.RecomputeNs, m.ComputeNs} {
		b = appendInt(b, v)
	}
	b = appendString(b, m.Phase)
	return appendBreakdown(b, m.Server), nil
}

func (m *WorldStep) decode(p []byte) error {
	d := decoder{p: p}
	flags := d.flags(2)
	m.Done, m.Update = flags&1 != 0, flags&2 != 0
	m.Seq, m.Tuples, m.CostMs = d.int(), d.int(), d.float()
	m.WallNs, m.WaitNs, m.IONs, m.RecomputeNs, m.ComputeNs = d.int64(), d.int64(), d.int64(), d.int64(), d.int64()
	m.Phase = d.string()
	m.Server = d.breakdown()
	return d.finish()
}

func (m *Stmt) traceSlot() **TraceContext        { return &m.Trace }
func (m *Prepare) traceSlot() **TraceContext     { return &m.Trace }
func (m *StmtExec) traceSlot() **TraceContext    { return &m.Trace }
func (m *StmtClose) traceSlot() **TraceContext   { return &m.Trace }
func (m *Begin) traceSlot() **TraceContext       { return &m.Trace }
func (m *Commit) traceSlot() **TraceContext      { return &m.Trace }
func (m *Rollback) traceSlot() **TraceContext    { return &m.Trace }
func (m *Fetch) traceSlot() **TraceContext       { return &m.Trace }
func (m *CursorClose) traceSlot() **TraceContext { return &m.Trace }
func (m *WorldNext) traceSlot() **TraceContext   { return &m.Trace }
func (m *WorldStats) traceSlot() **TraceContext  { return &m.Trace }
