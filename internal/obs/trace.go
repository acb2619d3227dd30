// Package obs is the observability layer of the executable system: per-
// operation tracing, component-attributed cost breakdowns, bounded-bucket
// latency histograms, and a drift monitor that checks the measured cost of
// every run against the analytic model's prediction.
//
// Everything here measures *simulated* milliseconds — the C1/C2/C3-priced
// cost the paper analyzes — not wall-clock time, so traces are exactly
// reproducible for a given seed. The package depends only on internal/
// metric; the execution stack (query, proc, avm, rete, sim) finds the
// operation's *Tracer on the storage.Pager it executes on, and all
// tracing calls are nil-safe so a disabled tracer costs one nil check.
// Package artifact reads the records written here back.
//
// See docs/OBSERVABILITY.md for the trace schema and the procsim/procstat
// workflow.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dbproc/internal/metric"
)

// Span is one traced region of work: a workload operation ("op.query",
// "op.update") or a strategy-internal step ("ci.refresh", "avm.merge",
// "rete.propagate", ...). Start and duration are simulated milliseconds;
// Counters is the cost-event delta accumulated while the span was open
// (children included).
type Span struct {
	ID     int64
	Parent int64 // 0 for root spans
	Name   string
	// StartMs is the meter's priced total when the span opened.
	StartMs float64
	// DurMs is the priced cost accumulated while the span was open.
	DurMs float64
	// Counters is the raw event delta over the span.
	Counters metric.Counters
	// Attrs carries span-specific labels (proc id, cache state, tuple
	// counts ...). Nil until the first Set.
	Attrs map[string]any

	start metric.Counters
}

// Set attaches an attribute; nil-safe so call sites need no tracing check.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]any, 4)
	}
	s.Attrs[key] = v
}

// Tracer collects spans for one run, or for one session of a concurrent
// run (Move). One pager executes one operation at a time, so spans open
// and close in LIFO order; Begin parents the new span under the innermost
// open one.
//
// All methods are nil-safe: a nil *Tracer is the disabled state and every
// call on it is a no-op, so instrumented code pays one nil check when
// tracing is off.
type Tracer struct {
	meter  *metric.Meter
	spans  []*Span
	stack  []*Span
	nextID int64
}

// NewTracer returns an empty tracer. Bind must be called (the simulator
// does it) before spans are begun.
func NewTracer() *Tracer {
	return &Tracer{nextID: 1}
}

// Bind attaches the meter whose snapshots time the spans.
func (t *Tracer) Bind(m *metric.Meter) {
	if t == nil {
		return
	}
	t.meter = m
}

// Begin opens a span. It returns nil (still safe to use) when the tracer
// is nil.
func (t *Tracer) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	if t.meter == nil {
		panic("obs: tracer not bound to a meter")
	}
	sp := &Span{ID: t.nextID, Name: name, start: t.meter.Snapshot()}
	t.nextID++
	sp.StartMs = sp.start.Milliseconds(t.meter.Costs())
	if n := len(t.stack); n > 0 {
		sp.Parent = t.stack[n-1].ID
	}
	t.stack = append(t.stack, sp)
	t.spans = append(t.spans, sp)
	return sp
}

// End closes the innermost open span, which must be sp. It records the
// span's event delta and prices its duration.
func (t *Tracer) End(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != sp {
		panic(fmt.Sprintf("obs: End(%q) does not match the innermost open span", sp.Name))
	}
	t.stack = t.stack[:n-1]
	sp.Counters = t.meter.Since(sp.start)
	sp.DurMs = sp.Counters.Milliseconds(t.meter.Costs())
}

// Move appends src's finished spans — one operation's tree, traced on a
// session's private meter — and empties src: the concurrent engine's
// commit step, which serializes the calls. Ids are renumbered in t's
// sequence; each root starts at at, the run's cost committed before the
// op, and every other span keeps its offset (in events) from its root, so
// one session's trace equals one meter's. It returns the last root moved,
// open for Set until the trace is rendered.
func (t *Tracer) Move(src *Tracer, at metric.Counters) *Span {
	if t == nil || src == nil {
		return nil
	}
	if len(src.stack) > 0 {
		panic(fmt.Sprintf("obs: Move with span %q still open", src.stack[len(src.stack)-1].Name))
	}
	costs := src.meter.Costs()
	base := t.nextID - 1
	var root *Span
	for _, sp := range src.spans {
		if sp.Parent == 0 {
			root = sp
		} else {
			sp.Parent += base
		}
		sp.ID += base
		sp.StartMs = at.Add(sp.start.Sub(root.start)).Milliseconds(costs)
	}
	t.spans = append(t.spans, src.spans...)
	t.nextID += int64(len(src.spans))
	clear(src.spans)
	src.spans = src.spans[:0]
	src.nextID = 1
	return root
}

// Current returns the innermost open span (nil if none), letting deep
// layers attach attributes — e.g. Cache and Invalidate marks the enclosing
// operation span hit or cold — without threading the span through every
// signature.
func (t *Tracer) Current() *Span {
	if t == nil || len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// Spans returns every span begun so far, in begin order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// ---------------------------------------------------------------------------
// Trace file records (JSONL)

// Record types, the "type" field of each JSONL line.
const (
	RecordSpan      = "span"
	RecordRun       = "run"
	RecordBreakdown = "breakdown"
)

// CountersJSON mirrors metric.Counters with stable JSON field names.
type CountersJSON struct {
	PageReads     int64 `json:"reads"`
	PageWrites    int64 `json:"writes"`
	Screens       int64 `json:"screens"`
	DeltaOps      int64 `json:"delta_ops"`
	Invalidations int64 `json:"invals"`
}

// ToCountersJSON converts a metric snapshot.
func ToCountersJSON(c metric.Counters) CountersJSON {
	return CountersJSON{
		PageReads:     c.PageReads,
		PageWrites:    c.PageWrites,
		Screens:       c.Screens,
		DeltaOps:      c.DeltaOps,
		Invalidations: c.Invalidations,
	}
}

// Counters converts back to the metric type.
func (c CountersJSON) Counters() metric.Counters {
	return metric.Counters{
		PageReads:     c.PageReads,
		PageWrites:    c.PageWrites,
		Screens:       c.Screens,
		DeltaOps:      c.DeltaOps,
		Invalidations: c.Invalidations,
	}
}

// CostsJSON mirrors metric.Costs with stable JSON field names.
type CostsJSON struct {
	C1     float64 `json:"c1_ms"`
	C2     float64 `json:"c2_ms"`
	C3     float64 `json:"c3_ms"`
	CInval float64 `json:"c_inval_ms"`
}

// ToCostsJSON converts the meter constants.
func ToCostsJSON(c metric.Costs) CostsJSON {
	return CostsJSON{C1: c.C1, C2: c.C2, C3: c.C3, CInval: c.CInval}
}

// Costs converts back to the metric type.
func (c CostsJSON) Costs() metric.Costs {
	return metric.Costs{C1: c.C1, C2: c.C2, C3: c.C3, CInval: c.CInval}
}

// SpanRecord is one span line in a trace file. Run labels which strategy
// run the span belongs to (procsim uses the strategy name).
type SpanRecord struct {
	Type     string         `json:"type"`
	Run      string         `json:"run"`
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent,omitempty"`
	Name     string         `json:"name"`
	StartMs  float64        `json:"start_ms"`
	DurMs    float64        `json:"dur_ms"`
	Counters CountersJSON   `json:"counters"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// RunRecord summarizes one strategy run: the measured and predicted cost
// the drift monitor compares.
type RunRecord struct {
	Type     string `json:"type"`
	Run      string `json:"run"`
	Strategy string `json:"strategy"`
	Model    string `json:"model"`
	Seed     int64  `json:"seed"`
	Queries  int    `json:"queries"`
	Updates  int    `json:"updates"`
	// MeasuredMsPerQuery and PredictedMsPerQuery are the paper's TOT
	// quantities: total workload cost divided by the number of queries.
	MeasuredMsPerQuery  float64 `json:"measured_ms_per_query"`
	PredictedMsPerQuery float64 `json:"predicted_ms_per_query"`
	// ColdFraction is the measured Cache-and-Invalidate cold-access
	// fraction; nil when the strategy keeps no such statistic.
	ColdFraction *float64 `json:"cold_fraction,omitempty"`
}

// BreakdownRecord carries one run's per-component cost counters plus the
// constants needed to price them.
type BreakdownRecord struct {
	Type       string                  `json:"type"`
	Run        string                  `json:"run"`
	Costs      CostsJSON               `json:"costs"`
	Components map[string]CountersJSON `json:"components"`
}

// Records converts the tracer's spans to serializable span records labeled
// with the given run name.
func (t *Tracer) Records(run string) []SpanRecord {
	if t == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.spans))
	for _, sp := range t.spans {
		out = append(out, SpanRecord{
			Type:     RecordSpan,
			Run:      run,
			ID:       sp.ID,
			Parent:   sp.Parent,
			Name:     sp.Name,
			StartMs:  sp.StartMs,
			DurMs:    sp.DurMs,
			Counters: ToCountersJSON(sp.Counters),
			Attrs:    sp.Attrs,
		})
	}
	return out
}

// BreakdownToRecord converts a meter breakdown for a trace file, keeping
// only components with any events.
func BreakdownToRecord(run string, bd metric.Breakdown, costs metric.Costs) BreakdownRecord {
	comps := make(map[string]CountersJSON)
	for _, c := range metric.Components() {
		if bd[c] != (metric.Counters{}) {
			comps[c.String()] = ToCountersJSON(bd[c])
		}
	}
	return BreakdownRecord{
		Type:       RecordBreakdown,
		Run:        run,
		Costs:      ToCostsJSON(costs),
		Components: comps,
	}
}

// WriteJSONL appends records (any mix of SpanRecord, RunRecord,
// BreakdownRecord values) to w, one JSON object per line.
func WriteJSONL(w io.Writer, records ...any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeJSONL renders records as JSON Lines in memory. Parallel sweep
// workers encode their own run's records into a private buffer and the
// reducer concatenates the buffers in canonical cell order, so a trace
// file written under `-workers N` is byte-identical to the sequential
// one.
func EncodeJSONL(records ...any) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteChromeTrace renders span records in the Chrome trace-event format
// (load the file at chrome://tracing or https://ui.perfetto.dev). Each run
// becomes one named thread; timestamps are simulated microseconds (1 ms of
// simulated cost = 1000 µs on the timeline).
//
// Spans carrying a "blame_sessions" attribute (the concurrent engine's
// lock-wait blame edges) additionally produce flow events: an arrow from
// the blamed session's most recent span in the same run to the blocked
// span, so causal wait chains are visible on the timeline.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	type metaEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	type flowEvent struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		ID   int     `json:"id"`
		BP   string  `json:"bp,omitempty"`
	}
	// anchor is where a flow arrow can originate: the end of a session's
	// latest span on the run's timeline.
	type anchor struct {
		ts  float64
		tid int
	}
	tids := map[string]int{}
	last := map[string]map[int]anchor{} // run -> session -> latest span end
	flowID := 0
	var events []any
	for _, sp := range spans {
		tid, ok := tids[sp.Run]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Run] = tid
			events = append(events, metaEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": sp.Run},
			})
		}
		args := map[string]any{
			"reads":     sp.Counters.PageReads,
			"writes":    sp.Counters.PageWrites,
			"screens":   sp.Counters.Screens,
			"delta_ops": sp.Counters.DeltaOps,
			"invals":    sp.Counters.Invalidations,
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: sp.Name, Ph: "X",
			Ts: sp.StartMs * 1000, Dur: sp.DurMs * 1000,
			Pid: 1, Tid: tid, Args: args,
		})
		// Flow arrows from each blamed session's latest span to this one.
		// Consulting `last` before updating it keeps a span from flowing
		// to itself when a session blames its own earlier operation.
		if bs, ok := sp.Attrs["blame_sessions"].(string); ok && bs != "" {
			seen := map[int]bool{}
			for _, tok := range strings.Split(bs, ",") {
				h, err := strconv.Atoi(tok)
				if err != nil || h < 0 || seen[h] {
					continue
				}
				seen[h] = true
				src, ok := last[sp.Run][h]
				if !ok {
					continue
				}
				flowID++
				events = append(events,
					flowEvent{Name: "lock-blame", Cat: "blame", Ph: "s",
						Ts: src.ts, Pid: 1, Tid: src.tid, ID: flowID},
					flowEvent{Name: "lock-blame", Cat: "blame", Ph: "f", BP: "e",
						Ts: sp.StartMs * 1000, Pid: 1, Tid: tid, ID: flowID})
			}
		}
		if sess, ok := attrInt(sp.Attrs["session"]); ok {
			if last[sp.Run] == nil {
				last[sp.Run] = map[int]anchor{}
			}
			last[sp.Run][sess] = anchor{ts: (sp.StartMs + sp.DurMs) * 1000, tid: tid}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// attrInt reads a numeric span attribute, tolerating the types an attr
// can arrive as: int when set in-process, float64 after a JSON
// round-trip through a trace file.
func attrInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case float64:
		return int(n), true
	}
	return 0, false
}
