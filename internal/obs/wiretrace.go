package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Wire-span records are the wall-clock half of the trace schema
// (docs/TRACING.md). Unlike the simulated-millisecond spans above, a
// wire span times one served request on a real clock: the client side
// spans the driver call (send → response decoded), the server side
// spans the request's service (dispatch → response build), and the two
// are tied together by the trace context the request frame propagated.
// Both sides write the same JSONL record type, so the one loader
// (artifact.Load) reads either file and procstat checks and merges them.

// RecordWireSpan is the "type" field of a wire-span JSONL line.
const RecordWireSpan = "wire_span"

// Sides of a wire span.
const (
	SideClient = "client"
	SideServer = "server"
)

// Canonical segment keys of a server span's breakdown, in rendering
// order. The segments partition the span's DurNs exactly — see
// wire.ServerBreakdown and CheckWireSpans.
var SegmentOrder = []string{"admission", "gate", "lock_wait", "io", "recompute", "compute"}

// WireSpanRecord is one wire span line in a trace file.
type WireSpanRecord struct {
	Type string `json:"type"`
	// Side is "client" or "server".
	Side string `json:"side"`
	// TraceID ties the two sides of one request together; SpanID is
	// this span, ParentSpanID the client span a server span nests under.
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Name is the request name (wire.Name: "stmt", "world.next", ...).
	Name string `json:"name"`
	// Conn identifies the connection (client-side dial counter or
	// server-side conn id — the two spaces are independent).
	Conn int64 `json:"conn,omitempty"`
	// Phase is the op's scenario phase, when the step reported one.
	Phase string `json:"phase,omitempty"`
	// StartUnixNs and DurNs place the span on that side's wall clock.
	StartUnixNs int64 `json:"start_unix_ns"`
	DurNs       int64 `json:"dur_ns"`
	// NetworkNs is the client-derived wire time: client wall minus the
	// server-reported wall (client spans only, and only when the
	// response carried a breakdown).
	NetworkNs int64 `json:"network_ns,omitempty"`
	// Segments is the server-side partition of DurNs, keyed by
	// SegmentOrder (server spans only).
	Segments map[string]int64 `json:"segments,omitempty"`
	// Err carries the error code when the request failed.
	Err string `json:"err,omitempty"`
}

// ---------------------------------------------------------------------------
// Trace and span identifiers

var (
	idSalt    = uint64(time.Now().UnixNano())
	idCounter atomic.Uint64
)

// NewTraceID returns a 16-hex-digit process-unique identifier. IDs mix
// a process salt with a sequence counter (no math/rand: worlds keep
// their injected-RNG discipline, and trace IDs are wall-clock artifacts
// with no replay contract).
func NewTraceID() string {
	n := idCounter.Add(1)
	return fmt.Sprintf("%016x", idSalt^(n*0x9e3779b97f4a7c15))
}

// NewSpanID returns a span identifier from the same sequence.
func NewSpanID() string { return NewTraceID() }

// ---------------------------------------------------------------------------
// Sink

// WireSpanSink serializes wire-span records to one JSONL stream. Safe
// for concurrent use; nil-safe, so an untraced server passes a nil sink
// and pays one nil check per request.
type WireSpanSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	n   int64
}

// NewWireSpanSink wraps w (typically a file) in a sink.
func NewWireSpanSink(w io.Writer) *WireSpanSink {
	bw := bufio.NewWriter(w)
	return &WireSpanSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record, stamping its type.
func (s *WireSpanSink) Write(rec WireSpanRecord) error {
	if s == nil {
		return nil
	}
	rec.Type = RecordWireSpan
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if err := s.enc.Encode(rec); err != nil {
		return err
	}
	return s.bw.Flush()
}

// Count reports how many records the sink has written.
func (s *WireSpanSink) Count() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// ---------------------------------------------------------------------------
// Checking

// CheckWireSpans verifies the server-side sum-to-total invariant: every
// server span carrying segments must have them sum exactly to its
// DurNs. It returns one error per violating span.
func CheckWireSpans(spans []WireSpanRecord) []error {
	var errs []error
	for _, sp := range spans {
		if sp.Side != SideServer || len(sp.Segments) == 0 {
			continue
		}
		var sum int64
		for _, v := range sp.Segments {
			sum += v
		}
		if sum != sp.DurNs {
			errs = append(errs, fmt.Errorf("server span %s (%s, trace %s): segments sum %d != wall %d",
				sp.SpanID, sp.Name, sp.TraceID, sum, sp.DurNs))
		}
	}
	return errs
}

// ---------------------------------------------------------------------------
// Merging

// MergeStats summarizes one MergeWireTrace call.
type MergeStats struct {
	ClientSpans int
	ServerSpans int
	// Pairs counts client spans matched to a server span by trace id.
	Pairs int
	// MeanOffsetNs is the clock offset subtracted from server
	// timestamps to align them with the client clock (estimated from
	// matched-pair midpoints, so it absorbs both clock skew and the
	// symmetric half of the network round trip).
	MeanOffsetNs int64
	// Arrows counts the cross-wire flow arrows emitted (request +
	// response per pair).
	Arrows int
}

// MergeWireTrace renders client- and server-side wire spans as one
// clock-aligned Chrome trace (chrome://tracing, ui.perfetto.dev):
// process 1 is the client, process 2 the server, one thread per
// connection. Matched requests get cross-wire flow arrows — client send
// to server dispatch, server response to client receive — and server
// spans with a breakdown get child slices, one per segment in
// SegmentOrder.
//
// The two sides run on different clocks. For every matched pair the
// midpoint difference client−server estimates that clock's offset (the
// server span sits inside the client span, so midpoints coincide up to
// skew plus network asymmetry); the mean over all pairs realigns the
// server timeline.
func MergeWireTrace(w io.Writer, spans []WireSpanRecord) (MergeStats, error) {
	var st MergeStats
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		ID   int            `json:"id,omitempty"`
		BP   string         `json:"bp,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}

	// Index the server side by trace id; estimate the clock offset.
	serverByTrace := map[string]*WireSpanRecord{}
	var clients, servers []*WireSpanRecord
	for i := range spans {
		sp := &spans[i]
		switch sp.Side {
		case SideClient:
			clients = append(clients, sp)
		case SideServer:
			servers = append(servers, sp)
			serverByTrace[sp.TraceID] = sp
		}
	}
	st.ClientSpans, st.ServerSpans = len(clients), len(servers)
	var offSum, offN int64
	for _, c := range clients {
		s, ok := serverByTrace[c.TraceID]
		if !ok {
			continue
		}
		st.Pairs++
		cMid := c.StartUnixNs + c.DurNs/2
		sMid := s.StartUnixNs + s.DurNs/2
		offSum += cMid - sMid
		offN++
	}
	if offN > 0 {
		st.MeanOffsetNs = offSum / offN
	}

	// Base timestamp: earliest aligned start, so the timeline begins
	// near zero.
	base := int64(0)
	first := true
	aligned := func(sp *WireSpanRecord) int64 {
		if sp.Side == SideServer {
			return sp.StartUnixNs + st.MeanOffsetNs
		}
		return sp.StartUnixNs
	}
	for i := range spans {
		if s := aligned(&spans[i]); first || s < base {
			base, first = s, false
		}
	}
	ts := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	pidOf := map[string]int{SideClient: 1, SideServer: 2}
	events := []any{
		map[string]any{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
			"args": map[string]any{"name": "client"}},
		map[string]any{"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
			"args": map[string]any{"name": "server"}},
	}

	// Deterministic output: spans sorted by aligned start, ties by span id.
	order := make([]*WireSpanRecord, 0, len(spans))
	for i := range spans {
		if spans[i].Side == SideClient || spans[i].Side == SideServer {
			order = append(order, &spans[i])
		}
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := aligned(order[i]), aligned(order[j])
		if si != sj {
			return si < sj
		}
		return order[i].SpanID < order[j].SpanID
	})

	flowID := 0
	for _, sp := range order {
		start := aligned(sp)
		args := map[string]any{"trace_id": sp.TraceID, "span_id": sp.SpanID}
		if sp.ParentSpanID != "" {
			args["parent_span_id"] = sp.ParentSpanID
		}
		if sp.Phase != "" {
			args["phase"] = sp.Phase
		}
		if sp.NetworkNs != 0 {
			args["network_ns"] = sp.NetworkNs
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		events = append(events, event{
			Name: sp.Name, Ph: "X", Ts: ts(start), Dur: float64(sp.DurNs) / 1e3,
			Pid: pidOf[sp.Side], Tid: sp.Conn, Args: args,
		})
		// Server breakdown child slices, laid end to end in canonical
		// segment order (they partition the span exactly).
		if sp.Side == SideServer && len(sp.Segments) > 0 {
			segStart := start
			for _, key := range SegmentOrder {
				d := sp.Segments[key]
				if d <= 0 {
					continue
				}
				events = append(events, event{
					Name: key, Cat: "segment", Ph: "X",
					Ts: ts(segStart), Dur: float64(d) / 1e3,
					Pid: pidOf[SideServer], Tid: sp.Conn,
				})
				segStart += d
			}
		}
		// Cross-wire flow arrows for the matched pair, drawn from the
		// client span so each pair is emitted once.
		if sp.Side == SideClient {
			srv, ok := serverByTrace[sp.TraceID]
			if !ok {
				continue
			}
			sStart := aligned(srv)
			flowID++
			events = append(events,
				event{Name: "request", Cat: "wire", Ph: "s", Ts: ts(start),
					Pid: pidOf[SideClient], Tid: sp.Conn, ID: flowID},
				event{Name: "request", Cat: "wire", Ph: "f", BP: "e", Ts: ts(sStart),
					Pid: pidOf[SideServer], Tid: srv.Conn, ID: flowID})
			flowID++
			events = append(events,
				event{Name: "response", Cat: "wire", Ph: "s", Ts: ts(sStart + srv.DurNs),
					Pid: pidOf[SideServer], Tid: srv.Conn, ID: flowID},
				event{Name: "response", Cat: "wire", Ph: "f", BP: "e", Ts: ts(start + sp.DurNs),
					Pid: pidOf[SideClient], Tid: sp.Conn, ID: flowID})
			st.Arrows += 2
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events}); err != nil {
		return st, err
	}
	return st, nil
}
