package telemetry_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dbproc/internal/artifact"
	"dbproc/internal/telemetry"
)

func TestDumpRoundTrip(t *testing.T) {
	r := telemetry.NewRecorder(64)
	r.Op(telemetry.EvOpBegin, 0, -1, "query", 0, 0)
	r.Op(telemetry.EvLockAcquire, 0, -1, "rel:r1", 1500, 0)
	r.Op(telemetry.EvOpCommit, 0, 7, "query", 0, 2500)
	r.Record(telemetry.Event{Kind: telemetry.EvViolation, Session: -1, Seq: -1, Detail: "no serial order", Seqs: []int{5, 7}})

	var buf bytes.Buffer
	if err := r.DumpJSONL(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	d := readDump(t, buf.String())
	if d.Header.Reason != "test" || d.Header.Events != 4 {
		t.Fatalf("header = %+v", d.Header)
	}
	if len(d.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(d.Events))
	}
	if d.Events[1].Kind != telemetry.EvLockAcquire || d.Events[1].WaitNs != 1500 {
		t.Fatalf("lock event = %+v", d.Events[1])
	}
	v := d.Violations()
	if len(v) != 1 || len(v[0].Seqs) != 2 || v[0].Seqs[1] != 7 {
		t.Fatalf("violations = %+v", v)
	}
	// Sessions and seqs survive as -1, not 0.
	if d.Events[0].Seq != -1 || v[0].Session != -1 {
		t.Fatalf("n/a fields lost: %+v %+v", d.Events[0], v[0])
	}
}

func TestAutoDumpOnTriggerKinds(t *testing.T) {
	r := telemetry.NewRecorder(32)
	var buf bytes.Buffer
	r.SetAutoDumpWriter(&buf)
	r.Op(telemetry.EvOpCommit, 0, 0, "q", 0, 0)
	if buf.Len() != 0 {
		t.Fatal("non-trigger kind dumped")
	}
	r.Record(telemetry.Event{Kind: telemetry.EvWatchdog, Session: -1, Seq: -1, Detail: "stall"})
	d := readDump(t, buf.String())
	if d.Header.Reason != telemetry.EvWatchdog {
		t.Fatalf("header = %+v", d.Header)
	}
	if len(d.Events) != 2 {
		t.Fatalf("events = %d, want 2 (commit + watchdog)", len(d.Events))
	}
}

func TestAutoDumpFile(t *testing.T) {
	r := telemetry.NewRecorder(32)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	r.SetAutoDumpFile(path)
	r.Op(telemetry.EvOpCommit, 0, 0, "q", 0, 0)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("dump file created before any trigger")
	}
	r.Record(telemetry.Event{Kind: telemetry.EvFault, Session: -1, Seq: -1, Detail: "device dead after 2 writes"})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("auto-dump file: %v", err)
	}
	d := readDump(t, string(data))
	if d.Header.Reason != telemetry.EvFault {
		t.Fatalf("reason = %q", d.Header.Reason)
	}
	if len(d.Events) != 2 || d.Events[0].Kind != telemetry.EvOpCommit || d.Events[1].Detail != "device dead after 2 writes" {
		t.Fatalf("events = %+v", d.Events)
	}
}

// readDump loads a JSONL stream that must hold exactly one flight dump.
func readDump(t *testing.T, data string) telemetry.Dump {
	t.Helper()
	a := &artifact.Set{}
	if err := a.Add("dump.jsonl", []byte(data)); err != nil {
		t.Fatal(err)
	}
	if len(a.Dumps) != 1 {
		t.Fatalf("stream holds %d dumps, want 1", len(a.Dumps))
	}
	return a.Dumps[0]
}
