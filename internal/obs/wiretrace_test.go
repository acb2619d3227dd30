package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// span builds a matched client/server pair: the server span sits inside
// the client span on its own clock, shifted by skewNs.
func pair(trace string, conn int64, startNs, clientDur, serverDur, skewNs int64, segs map[string]int64) (WireSpanRecord, WireSpanRecord) {
	c := WireSpanRecord{
		Side: SideClient, TraceID: trace, SpanID: trace + "-c", Name: "stmt",
		Conn: conn, StartUnixNs: startNs, DurNs: clientDur,
		NetworkNs: clientDur - serverDur,
	}
	gap := (clientDur - serverDur) / 2
	s := WireSpanRecord{
		Side: SideServer, TraceID: trace, SpanID: trace + "-s", ParentSpanID: c.SpanID,
		Name: "stmt", Conn: 100 + conn,
		StartUnixNs: startNs + gap - skewNs, DurNs: serverDur,
		Segments: segs,
	}
	return c, s
}

func TestMergeWireTrace(t *testing.T) {
	segs := map[string]int64{"admission": 100, "gate": 400, "compute": 500}
	c1, s1 := pair("t1", 1, 1_000_000, 5000, 1000, 250_000, segs)
	c2, s2 := pair("t2", 2, 2_000_000, 8000, 2000, 250_000,
		map[string]int64{"admission": 200, "lock_wait": 800, "io": 600, "compute": 400})
	orphan := WireSpanRecord{Side: SideClient, TraceID: "t3", SpanID: "t3-c",
		Name: "ping", Conn: 1, StartUnixNs: 3_000_000, DurNs: 100}

	var buf bytes.Buffer
	st, err := MergeWireTrace(&buf, []WireSpanRecord{c1, s1, c2, s2, orphan})
	if err != nil {
		t.Fatal(err)
	}
	if st.ClientSpans != 3 || st.ServerSpans != 2 || st.Pairs != 2 {
		t.Fatalf("stats = %+v, want 3 client / 2 server / 2 pairs", st)
	}
	if st.Arrows != 4 {
		t.Fatalf("arrows = %d, want 4 (request+response per pair)", st.Arrows)
	}
	// Both pairs were built with the same skew, so the midpoint
	// estimator must recover it exactly.
	if st.MeanOffsetNs != 250_000 {
		t.Fatalf("mean offset = %d, want 250000", st.MeanOffsetNs)
	}

	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("merged output is not JSON: %v", err)
	}
	var flows, segments, slices int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "s", "f":
			flows++
		case "X":
			if ev["cat"] == "segment" {
				segments++
			} else {
				slices++
			}
		}
	}
	if flows != 8 { // 2 pairs x 2 arrows x 2 endpoints
		t.Errorf("flow events = %d, want 8", flows)
	}
	if segments != 7 { // 3 + 4 nonzero segments
		t.Errorf("segment slices = %d, want 7", segments)
	}
	if slices != 5 { // 3 client + 2 server spans
		t.Errorf("span slices = %d, want 5", slices)
	}
	// After alignment the server span must start inside its client span.
	evByName := func(name string) map[string]any {
		for _, ev := range out.TraceEvents {
			if args, ok := ev["args"].(map[string]any); ok && args["span_id"] == name {
				return ev
			}
		}
		return nil
	}
	cEv, sEv := evByName("t1-c"), evByName("t1-s")
	if cEv == nil || sEv == nil {
		t.Fatal("merged trace lost a span")
	}
	cs, ss := cEv["ts"].(float64), sEv["ts"].(float64)
	if ss < cs || ss+sEv["dur"].(float64) > cs+cEv["dur"].(float64) {
		t.Errorf("aligned server span [%v +%v] not inside client span [%v +%v]",
			ss, sEv["dur"], cs, cEv["dur"])
	}
}

func TestCheckWireSpans(t *testing.T) {
	good := WireSpanRecord{Side: SideServer, SpanID: "a", Name: "stmt", DurNs: 1000,
		Segments: map[string]int64{"gate": 400, "compute": 600}}
	bad := WireSpanRecord{Side: SideServer, SpanID: "b", Name: "stmt", DurNs: 1000,
		Segments: map[string]int64{"gate": 400, "compute": 500}}
	clientNoSegs := WireSpanRecord{Side: SideClient, SpanID: "c", DurNs: 7}
	errs := CheckWireSpans([]WireSpanRecord{good, bad, clientNoSegs})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "span b") {
		t.Fatalf("errs = %v, want exactly the bad span", errs)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 || seen[id] {
			t.Fatalf("id %q duplicate or malformed", id)
		}
		seen[id] = true
	}
}
