package main

import (
	"bytes"
	"strings"
	"testing"

	"dbproc/internal/engine"
	"dbproc/internal/telemetry"
)

// TestTopBlockers checks the flight-dump blocker aggregation: grouping
// by (lock, holder), wait totals, and the wait-descending sort.
func TestTopBlockers(t *testing.T) {
	d := &telemetry.Dump{Events: []telemetry.Event{
		{Kind: telemetry.EvLockAcquire, Name: "rel:r1", WaitNs: 100, Detail: "held by session 2 (update)"},
		{Kind: telemetry.EvLockAcquire, Name: "rel:r1", WaitNs: 300, Detail: "held by session 2 (update)"},
		{Kind: telemetry.EvLockAcquire, Name: "rel:r2", WaitNs: 900, Detail: "held by session 0 (query proc:7)"},
		{Kind: telemetry.EvLockAcquire, Name: "rel:r3", WaitNs: 0}, // uncontended: excluded
		{Kind: telemetry.EvOpCommit, Name: "update", WaitNs: 500},  // wrong kind: excluded
	}}
	got := topBlockers(d)
	if len(got) != 2 {
		t.Fatalf("got %d blockers, want 2: %+v", len(got), got)
	}
	if got[0].Lock != "rel:r2" || got[0].WaitNs != 900 || got[0].Waits != 1 {
		t.Errorf("top blocker = %+v", got[0])
	}
	if got[1].Lock != "rel:r1" || got[1].WaitNs != 400 || got[1].Waits != 2 || got[1].MaxWaitNs != 300 {
		t.Errorf("second blocker = %+v", got[1])
	}
}

// TestFlightReportWaitClasses: the flight report must causally separate
// waits on an update's declared 2PL footprint from waits on the MVCC
// version-chain GC lock, both per blocker line and in the summary split.
func TestFlightReportWaitClasses(t *testing.T) {
	if got := waitClass("rel:r1"); got != waitClassFootprint {
		t.Errorf("waitClass(rel:r1) = %q", got)
	}
	if got := waitClass(engine.GCLock); got != waitClassGC {
		t.Errorf("waitClass(%s) = %q", engine.GCLock, got)
	}
	d := &telemetry.Dump{Events: []telemetry.Event{
		{Kind: telemetry.EvLockAcquire, Name: "rel:r1", WaitNs: 4_000_000, Detail: "held by session 2 (update)"},
		{Kind: telemetry.EvLockAcquire, Name: engine.GCLock, WaitNs: 1_000_000, Detail: "held by session 1 (gc)"},
	}}
	var buf bytes.Buffer
	flightReport(&buf, d, 10)
	out := buf.String()
	if !strings.Contains(out, "4.000 ms waited on update footprints, 1.000 ms on version-chain GC") {
		t.Errorf("missing wait split:\n%s", out)
	}
	if !strings.Contains(out, "[waited on update footprint]") || !strings.Contains(out, "[waited on version-chain GC]") {
		t.Errorf("blocker lines missing wait classes:\n%s", out)
	}
}
