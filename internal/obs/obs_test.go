package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dbproc/internal/metric"
)

func TestTracerSpansAndNesting(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	tr := NewTracer()
	tr.Bind(m)

	op := tr.Begin("op.query")
	m.PageRead(2) // 60 ms
	child := tr.Begin("ci.refresh")
	if tr.Current() != child {
		t.Fatal("Current() is not the innermost span")
	}
	child.Set("proc", 7)
	m.Screen(5) // 5 ms
	tr.End(child)
	m.PageWrite(1) // 30 ms
	tr.End(op)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0] != op || spans[1] != child {
		t.Fatal("spans not in begin order")
	}
	if child.Parent != op.ID {
		t.Fatalf("child.Parent = %d, want %d", child.Parent, op.ID)
	}
	if op.Parent != 0 {
		t.Fatalf("root span has parent %d", op.Parent)
	}
	if op.DurMs != 95 { // 2 reads + 1 write = 90, 5 screens = 5
		t.Fatalf("op.DurMs = %v, want 95", op.DurMs)
	}
	if child.DurMs != 5 {
		t.Fatalf("child.DurMs = %v, want 5", child.DurMs)
	}
	if child.StartMs != 60 {
		t.Fatalf("child.StartMs = %v, want 60", child.StartMs)
	}
	if op.Counters.PageReads != 2 || op.Counters.PageWrites != 1 || op.Counters.Screens != 5 {
		t.Fatalf("op.Counters = %v", op.Counters)
	}
	if got, want := child.Attrs["proc"], 7; got != want {
		t.Fatalf("child attr proc = %v, want %v", got, want)
	}
	// The registry accumulated one latency observation per span name.
	if n := tr.Registry().Count("op", "query"); n != 1 {
		t.Fatalf("registry count op.query = %d, want 1", n)
	}
	if h := tr.Registry().Hist("ci", "refresh"); h == nil || h.Count() != 1 {
		t.Fatal("registry missing ci.refresh histogram")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("op.query")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.Set("k", 1) // nil span: no-op
	tr.End(sp)
	if tr.Current() != nil || tr.Spans() != nil || tr.Registry() != nil || tr.Records("x") != nil {
		t.Fatal("nil tracer leaked state")
	}
	tr.Bind(nil)
}

func TestTracerEndMismatchPanics(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	tr := NewTracer()
	tr.Bind(m)
	outer := tr.Begin("a")
	tr.Begin("b")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched End did not panic")
		}
	}()
	tr.End(outer)
}

func TestChromeTraceExport(t *testing.T) {
	spans := []SpanRecord{
		{Type: RecordSpan, Run: "A", ID: 1, Name: "op.query", StartMs: 10, DurMs: 5,
			Attrs: map[string]any{"proc": 3}},
		{Type: RecordSpan, Run: "B", ID: 1, Name: "op.update", StartMs: 0, DurMs: 2},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// 2 thread_name metadata events + 2 duration events.
	if len(out.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(out.TraceEvents))
	}
	var x map[string]any
	for _, ev := range out.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "op.query" {
			x = ev
		}
	}
	if x == nil {
		t.Fatal("no X event for op.query")
	}
	if x["ts"].(float64) != 10000 || x["dur"].(float64) != 5000 {
		t.Fatalf("µs conversion wrong: ts=%v dur=%v", x["ts"], x["dur"])
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	sum := h.Summary()
	if sum.Min != 0.5 || sum.Max != 500 {
		t.Fatalf("min/max = %v/%v", sum.Min, sum.Max)
	}
	if got := sum.Mean; math.Abs(got-111.24) > 0.01 {
		t.Fatalf("mean = %v", got)
	}
	if q := h.Quantile(0.5); q != 10 { // 3rd of 5 obs is in (1,10]
		t.Fatalf("p50 = %v, want 10", q)
	}
	if q := h.Quantile(1); q != 500 {
		t.Fatalf("p100 = %v, want 500", q)
	}
	var buf bytes.Buffer
	h.Render(&buf)
	if !strings.Contains(buf.String(), "n=5") {
		t.Fatalf("render missing summary: %q", buf.String())
	}
}

func TestRegistryKeyedByComponentEvent(t *testing.T) {
	r := NewRegistry()
	r.Observe("op", "query", 30)
	r.Observe("op", "query", 60)
	r.Observe("avm", "merge", 5)
	r.Add("rete", "tokens", 12)
	if r.Count("op", "query") != 2 || r.Count("avm", "merge") != 1 || r.Count("rete", "tokens") != 12 {
		t.Fatalf("counts wrong: %v %v %v",
			r.Count("op", "query"), r.Count("avm", "merge"), r.Count("rete", "tokens"))
	}
	keys := r.Keys()
	if len(keys) != 3 || keys[0] != (Key{"op", "query"}) || keys[2] != (Key{"rete", "tokens"}) {
		t.Fatalf("keys order wrong: %v", keys)
	}
	if h := r.Hist("op", "query"); h == nil || h.Sum() != 90 {
		t.Fatal("op.query histogram wrong")
	}
	if h := r.Hist("rete", "tokens"); h != nil {
		t.Fatal("Add must not create a histogram")
	}
}

func TestDriftMonitor(t *testing.T) {
	d := NewDrift(0.15)
	d.Record("Always Recompute", "model 1", 110, 100) // 10% — fine
	d.Record("Cache and Invalidate", "model 1", 150, 100)
	d.Record("Cache and Invalidate", "model 1", 130, 100) // mean 140 → 40% drift
	entries := d.Entries()
	if len(entries) != 2 {
		t.Fatalf("got %d entries", len(entries))
	}
	var ci, ar DriftEntry
	for _, e := range entries {
		switch e.Strategy {
		case "Cache and Invalidate":
			ci = e
		case "Always Recompute":
			ar = e
		}
	}
	if ci.Runs != 2 || math.Abs(ci.RelErr()-0.40) > 1e-9 {
		t.Fatalf("ci entry wrong: %+v relerr %v", ci, ci.RelErr())
	}
	if d.Flagged(ar) {
		t.Fatal("10%% error flagged at 15%% threshold")
	}
	if !d.Flagged(ci) || !d.AnyFlagged() {
		t.Fatal("40%% error not flagged")
	}
	var buf bytes.Buffer
	d.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "DRIFT") || !strings.Contains(out, "Always Recompute") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if strings.Count(out, "DRIFT") != 1 {
		t.Fatalf("want exactly one DRIFT flag:\n%s", out)
	}
}

func TestDriftZeroPrediction(t *testing.T) {
	d := NewDrift(0)
	d.Record("s", "m", 5, 0)
	if e := d.Entries()[0]; !math.IsInf(e.RelErr(), 1) || !d.Flagged(e) {
		t.Fatal("nonzero measurement against zero prediction must flag")
	}
	if d.threshold() != DefaultDriftThreshold {
		t.Fatal("zero threshold did not default")
	}
}

func TestRenderBreakdownSumsToAggregate(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	m.SetComponent(metric.CompBTree)
	m.PageRead(4)
	m.Screen(10)
	m.SetComponent(metric.CompCache)
	m.PageWrite(2)
	m.SetComponent(metric.CompPager)

	var buf bytes.Buffer
	RenderBreakdown(&buf, m.Breakdown(), m.Costs())
	out := buf.String()
	for _, want := range []string{"btree", "cache", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rete") {
		t.Errorf("breakdown shows idle component:\n%s", out)
	}
	// TOTAL row must carry the aggregate counts.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	for _, want := range []string{"TOTAL", "4", "2", "10"} {
		if !strings.Contains(last, want) {
			t.Errorf("total row missing %q: %q", want, last)
		}
	}

	// Round-trip through a trace record renders identically.
	rec := BreakdownToRecord("r", m.Breakdown(), m.Costs())
	var buf2 bytes.Buffer
	RenderBreakdownRecord(&buf2, rec)
	if buf2.String() != out {
		t.Errorf("record render differs:\n%s\nvs\n%s", buf2.String(), out)
	}
}
