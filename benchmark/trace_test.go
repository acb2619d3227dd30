package main

import (
	"reflect"
	"strings"
	"testing"
)

// Two driver calls of one client on a clock that starts at 0: an access
// of 100 with one round trip of 80 whose server span of 50 is fully
// partitioned, and an update of 300 with a statement (120, server 100
// with a segment nobody knows) and a fetch (60, server span without a
// partition that outlasts its client span).
func syntheticTrace() ([]opSpan, []wireSpan, map[string]wireSpan) {
	ops := []opSpan{{Start: 1000, End: 1100}, {Update: true, Start: 1100, End: 1400}}
	wire := []wireSpan{
		{TraceID: "t2", SpanID: "c2", Name: "stmt", StartUnixNs: 1110, DurNs: 120},
		{TraceID: "t1", SpanID: "c1", Name: "world.next", StartUnixNs: 1010, DurNs: 80},
		{TraceID: "t3", SpanID: "c3", Name: "fetch", StartUnixNs: 1300, DurNs: 60},
	}
	server := map[string]wireSpan{
		"t1": {TraceID: "t1", SpanID: "s1", Name: "world.next", StartUnixNs: 1020, DurNs: 50,
			Segments: map[string]int64{"admission": 10, "io": 5, "compute": 35}},
		"t2": {TraceID: "t2", SpanID: "s2", Name: "stmt", StartUnixNs: 1115, DurNs: 100,
			Segments: map[string]int64{"gate": 30, "compute": 50, "parse": 20}},
		"t3": {TraceID: "t3", SpanID: "s3", Name: "fetch", StartUnixNs: 1305, DurNs: 90},
	}
	return ops, wire, server
}

func TestJoinSpansSelfTimes(t *testing.T) {
	ops, wire, server := syntheticTrace()
	var j joined
	joinSpans(&j, 0, ops, wire, server)
	if len(j.Violations) != 0 || j.Orphans != 0 || j.Unmatched != 0 {
		t.Fatalf("violations %v, orphans %d, unmatched %d", j.Violations, j.Orphans, j.Unmatched)
	}
	a := j.Access
	if a.Ops != 1 || a.HarnessNs != 100 || a.ClientNs != 80 || a.ServerNs != 50 || a.RoundTrips != 1 || a.UnsegNs != 0 {
		t.Errorf("access sums %+v", a)
	}
	if !reflect.DeepEqual(a.Segment, map[string]int64{"admission": 10, "io": 5, "compute": 35}) {
		t.Errorf("access segments %v", a.Segment)
	}
	u := j.Update
	// The fetch's server span is cut where its client span ends: 100 + 55.
	if u.Ops != 1 || u.HarnessNs != 300 || u.ClientNs != 180 || u.ServerNs != 155 || u.RoundTrips != 2 || u.UnsegNs != 55 {
		t.Errorf("update sums %+v", u)
	}
	if !reflect.DeepEqual(j.AccessSelf, []float64{0.020}) || !reflect.DeepEqual(j.AccessNetwork, []float64{0.030}) || !reflect.DeepEqual(j.AccessServer, []float64{0.050}) {
		t.Errorf("access shares %v %v %v", j.AccessSelf, j.AccessNetwork, j.AccessServer)
	}

	// The span file: every child inside its parent, segments end to end.
	byID := map[string]span{}
	for _, sp := range j.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range j.Spans {
		if sp.Parent == "" {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok || sp.Start < p.Start || sp.End > p.End || sp.Trace != p.Trace {
			t.Errorf("span %+v does not sit inside its parent %+v", sp, p)
		}
	}
	var names []string
	for _, sp := range j.Spans {
		if sp.Parent == "s2" {
			names = append(names, sp.Name)
		}
	}
	if want := []string{"segment.gate", "segment.compute", "segment.parse"}; !reflect.DeepEqual(names, want) {
		t.Errorf("segments of s2 laid out as %v, want %v (known ones in order, new ones last)", names, want)
	}
}

func TestJoinSpansReportsWhatDoesNotAddUp(t *testing.T) {
	ops, wire, server := syntheticTrace()
	s1 := server["t1"]
	s1.Segments = map[string]int64{"admission": 10, "compute": 35} // 45 of 50
	server["t1"] = s1
	delete(server, "t2")
	wire = append(wire, wireSpan{TraceID: "t0", SpanID: "c0", Name: "prepare", StartUnixNs: 500, DurNs: 10})
	var j joined
	joinSpans(&j, 0, ops, wire, server)
	if len(j.Violations) != 1 || !strings.Contains(j.Violations[0], "segments sum to 45") {
		t.Errorf("violations %v, want the one partition that does not sum", j.Violations)
	}
	if j.Unmatched != 1 || j.Orphans != 1 {
		t.Errorf("unmatched %d orphans %d, want 1 and 1", j.Unmatched, j.Orphans)
	}
}

func TestLayerMetricsAndNewSegments(t *testing.T) {
	ops, wire, server := syntheticTrace()
	var j joined
	joinSpans(&j, 0, ops, wire, server)
	res := &result{Workload: "w", Correct: true, Metrics: map[string]value{}}
	setLayerMetrics(res, j, reference{OpsPerS: 100, AccessP50Us: 0.1}, 80)
	// Two ops: harness 400, client 260, server 205 ns.
	for name, want := range map[string]float64{
		"client.self_us":           0.070,
		"wire.network_us":          0.0275,
		"wire.round_trips_per_op":  1.5,
		"server.unsegmented_us":    0.0275,
		"server.admission_us":      0.005,
		"server.gate_us":           0.015,
		"engine.compute_us":        0.0425,
		"storage.io_us":            0.0025,
		"obs.trace_overhead_ratio": 0.8,
		"budget.unexplained_share": 0,
	} {
		if got := res.Metrics[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	found := false
	for _, n := range res.Notes {
		found = found || strings.Contains(n, `new segment "parse"`)
	}
	if !found {
		t.Errorf("the unknown segment is not reported; notes: %v", res.Notes)
	}
}
