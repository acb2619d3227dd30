package obs_test

import (
	"bytes"
	"testing"

	"dbproc/internal/artifact"
	"dbproc/internal/metric"
	"dbproc/internal/obs"
)

// The round trips read back through the one loader, which imports obs,
// so they live in the external test package.

func TestJSONLRoundTrip(t *testing.T) {
	m := metric.NewMeter(metric.DefaultCosts())
	tr := obs.NewTracer()
	tr.Bind(m)
	sp := tr.Begin("op.update")
	m.DeltaOp(3)
	sp.Set("cache", "cold")
	tr.End(sp)

	cf := 0.25
	run := obs.RunRecord{
		Type: obs.RecordRun, Run: "Cache and Invalidate", Strategy: "Cache and Invalidate",
		Model: "model 1", Seed: 1, Queries: 10, Updates: 5,
		MeasuredMsPerQuery: 100, PredictedMsPerQuery: 90, ColdFraction: &cf,
	}
	bd := m.Breakdown()
	var buf bytes.Buffer
	recs := []any{run, obs.BreakdownToRecord("Cache and Invalidate", bd, m.Costs())}
	for _, s := range tr.Records("Cache and Invalidate") {
		recs = append(recs, s)
	}
	if err := obs.WriteJSONL(&buf, recs...); err != nil {
		t.Fatal(err)
	}

	tc := &artifact.Set{}
	if err := tc.Add("trace.jsonl", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(tc.Runs) != 1 || len(tc.Breakdowns) != 1 || len(tc.Spans) != 1 {
		t.Fatalf("parsed %d runs, %d breakdowns, %d spans", len(tc.Runs), len(tc.Breakdowns), len(tc.Spans))
	}
	if tc.Runs[0].ColdFraction == nil || *tc.Runs[0].ColdFraction != 0.25 {
		t.Fatalf("cold fraction lost: %+v", tc.Runs[0])
	}
	got := tc.Spans[0]
	if got.Name != "op.update" || got.DurMs != 3 || got.Counters.DeltaOps != 3 {
		t.Fatalf("span mangled: %+v", got)
	}
	if got.Attrs["cache"] != "cold" {
		t.Fatalf("span attrs mangled: %+v", got.Attrs)
	}
	// The breakdown record's component sums must reproduce the aggregate.
	var total metric.Counters
	for _, c := range tc.Breakdowns[0].Components {
		total = total.Add(c.Counters())
	}
	if total != m.Snapshot() {
		t.Fatalf("breakdown record total %v != snapshot %v", total, m.Snapshot())
	}
}

func TestWireSpanSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewWireSpanSink(&buf)
	recs := []obs.WireSpanRecord{
		{Side: obs.SideClient, TraceID: "t", SpanID: "c1", Name: "stmt", StartUnixNs: 10, DurNs: 5},
		{Side: obs.SideServer, TraceID: "t", SpanID: "s1", ParentSpanID: "c1", Name: "stmt",
			StartUnixNs: 11, DurNs: 3, Phase: "crowd",
			Segments: map[string]int64{"admission": 1, "compute": 2}},
	}
	for _, r := range recs {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if sink.Count() != 2 {
		t.Fatalf("count = %d", sink.Count())
	}
	// A nil sink must be a no-op.
	var nilSink *obs.WireSpanSink
	if err := nilSink.Write(recs[0]); err != nil || nilSink.Count() != 0 {
		t.Fatal("nil sink not a no-op")
	}
	tr := &artifact.Set{}
	if err := tr.Add("wire.jsonl", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(tr.WireSpans) != 2 {
		t.Fatalf("artifact.Load parsed %d wire spans, want 2", len(tr.WireSpans))
	}
	got := tr.WireSpans[1]
	if got.Phase != "crowd" || got.Segments["compute"] != 2 || got.ParentSpanID != "c1" {
		t.Fatalf("round-tripped span = %+v", got)
	}
	if errs := obs.CheckWireSpans(tr.WireSpans); len(errs) != 0 {
		t.Fatalf("sink output violates sum-to-total: %v", errs)
	}
}
