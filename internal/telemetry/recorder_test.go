package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: EvOpBegin})
	r.Op(EvOpCommit, 1, 2, "x", 0, 0)
	r.SetAutoDumpWriter(nil)
	r.SetAutoDumpFile("")
	if r.Len() != 0 {
		t.Fatal("nil recorder Len != 0")
	}
	if evs, dropped := r.Snapshot(); evs != nil || dropped != 0 {
		t.Fatal("nil recorder Snapshot not empty")
	}
	if err := r.DumpJSONL(&bytes.Buffer{}, "x"); err != nil {
		t.Fatal(err)
	}
	r.Timeline(&bytes.Buffer{})
}

func TestRecorderSnapshotOrderAndWrap(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.Op(EvOpCommit, i%4, i, "op", 0, 0)
	}
	events, dropped := r.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want 16", len(events))
	}
	if dropped != 24 {
		t.Fatalf("dropped = %d, want 24", dropped)
	}
	for i, ev := range events {
		if ev.I != int64(24+i) {
			t.Fatalf("event %d has index %d, want %d", i, ev.I, 24+i)
		}
		if ev.Seq != 24+i {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, 24+i)
		}
	}
	if r.Len() != 40 {
		t.Fatalf("Len = %d, want 40", r.Len())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Op(EvLockAcquire, w, i, "lock:r1", int64(i), 0)
				if i%10 == 0 {
					r.Snapshot() // readers race writers by design
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", r.Len(), writers*per)
	}
	events, _ := r.Snapshot()
	if len(events) != 128 {
		t.Fatalf("retained %d, want 128", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].I <= events[i-1].I {
			t.Fatalf("snapshot not strictly ordered at %d", i)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Op(EvOpBegin, 0, -1, "query", 0, 0)
	r.Op(EvLockAcquire, 0, -1, "rel:r1", 1500, 0)
	r.Op(EvOpCommit, 0, 7, "query", 0, 2500)
	r.Record(Event{Kind: EvViolation, Session: -1, Seq: -1, Detail: "no serial order", Seqs: []int{5, 7}})

	var buf bytes.Buffer
	if err := r.DumpJSONL(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Headers) != 1 || d.Headers[0].Reason != "test" || d.Headers[0].Events != 4 {
		t.Fatalf("header = %+v", d.Headers)
	}
	if len(d.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(d.Events))
	}
	if d.Events[1].Kind != EvLockAcquire || d.Events[1].WaitNs != 1500 {
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

func TestReadDumpSkipsUnknownTypes(t *testing.T) {
	in := `{"type":"span","name":"x"}
{"type":"flight","reason":"tail","events":1}

{"type":"event","i":0,"t_ns":5,"kind":"op.commit","session":1,"seq":2}
{"type":"contention","run":"ci","locks":[{"name":"rel:r1","acquires":3,"wait_share":1}]}
{"type":"run","strategy":"ci"}`
	d, err := ReadDump(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Headers) != 1 || len(d.Events) != 1 || len(d.Contention) != 1 {
		t.Fatalf("parsed %d/%d/%d", len(d.Headers), len(d.Events), len(d.Contention))
	}
	if d.Contention[0].Locks[0].Name != "rel:r1" {
		t.Fatalf("contention = %+v", d.Contention[0])
	}
}

func TestAutoDumpOnTriggerKinds(t *testing.T) {
	r := NewRecorder(32)
	var buf bytes.Buffer
	r.SetAutoDumpWriter(&buf)
	r.Op(EvOpCommit, 0, 0, "q", 0, 0)
	if buf.Len() != 0 {
		t.Fatal("non-trigger kind dumped")
	}
	r.Record(Event{Kind: EvWatchdog, Session: -1, Seq: -1, Detail: "stall"})
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Headers) != 1 || d.Headers[0].Reason != EvWatchdog {
		t.Fatalf("header = %+v", d.Headers)
	}
	if len(d.Events) != 2 {
		t.Fatalf("events = %d, want 2 (commit + watchdog)", len(d.Events))
	}
}

func TestAutoDumpFile(t *testing.T) {
	r := NewRecorder(32)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	r.SetAutoDumpFile(path)
	r.Op(EvOpCommit, 0, 0, "q", 0, 0)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("dump file created before any trigger")
	}
	r.Record(Event{Kind: EvFault, Session: -1, Seq: -1, Detail: "device dead after 2 writes"})
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("auto-dump file: %v", err)
	}
	defer f.Close()
	d, err := ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if d.Headers[0].Reason != EvFault {
		t.Fatalf("reason = %q", d.Headers[0].Reason)
	}
	if len(d.Events) != 2 || d.Events[0].Kind != EvOpCommit || d.Events[1].Detail != "device dead after 2 writes" {
		t.Fatalf("events = %+v", d.Events)
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(32)
	r.Op(EvLockAcquire, 2, -1, "rel:r1", 1500000, 0)
	r.Op(EvOpCommit, 2, 9, "update", 0, 300000)
	var buf bytes.Buffer
	r.Timeline(&buf)
	out := buf.String()
	for _, want := range []string{"2 events retained", "lock.acquire", "rel:r1", "wait=1.5ms", "hold=300", "op.commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}

	// mark flags matching rows with '*'.
	events, dropped := r.Snapshot()
	buf.Reset()
	WriteTimeline(&buf, events, dropped, func(ev Event) bool { return ev.Seq == 9 })
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "*") {
		t.Fatalf("marked row not flagged: %q", last)
	}
}

func TestRenderContention(t *testing.T) {
	rec := ContentionRecord{
		Type: RecordContention,
		Run:  "ci/model1",
		Locks: []LockContentionJSON{
			{Name: "rel:r1", Acquires: 100, Contended: 40, WaitMs: 12.5, HoldMs: 3.25, MaxWaitUs: 900, WaitShare: 0.8},
			{Name: "cache:000017", Acquires: 60, Contended: 5, WaitMs: 3.1, HoldMs: 1.0, MaxWaitUs: 200, WaitShare: 0.2},
		},
	}
	var buf bytes.Buffer
	RenderContention(&buf, rec, 1)
	out := buf.String()
	if !strings.Contains(out, "top 1 of 2") || !strings.Contains(out, "rel:r1") {
		t.Fatalf("render:\n%s", out)
	}
	if strings.Contains(out, "cache:000017") {
		t.Fatalf("topK not honored:\n%s", out)
	}
	buf.Reset()
	RenderContention(&buf, rec, 0)
	if !strings.Contains(buf.String(), "cache:000017") {
		t.Fatalf("topK=0 should render all:\n%s", buf.String())
	}
}
